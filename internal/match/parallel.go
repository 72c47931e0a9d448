package match

// A search runs on its caller's goroutine. Count and MatchedEdges do not
// fan out within a pattern either: a tree pattern, which is what the
// offline pipeline asks them about, is reduced without a search
// (reduce.go), and any other is enumerated into one count or one edge
// set. The pipeline asks about hundreds of patterns at once — selection
// sizes every candidate, horizontal fragmentation every minterm, the
// dictionary counts every fragment — so the fan-out is over patterns:
// CountAll and MatchedEdgesAll hand one pattern at a time to each of
// parallelFor's workers, and put each result at its pattern's index.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor calls fn(i) for every i below n, on up to GOMAXPROCS
// goroutines, the caller's among them, that claim indices from a shared
// counter until none is left, so a slow item holds up one worker only.
func parallelFor(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
