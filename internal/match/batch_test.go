package match

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

func batchGraph(n int) *rdf.Graph {
	g := rdf.NewGraph(nil)
	for i := 0; i < n; i++ {
		g.AddTerms(rdf.NewIRI(fmt.Sprintf("s%d", i)), rdf.NewIRI("p"), rdf.NewIRI(fmt.Sprintf("o%d", i)))
	}
	return g
}

// TestFindBatchesCoversAllMatches checks the batching contract: full
// batches of size, then the partial one, holding Find's matches in Find's
// order — and, when the callback stops the search once it holds a LIMIT's
// worth, the batches up to that one.
func TestFindBatchesCoversAllMatches(t *testing.T) {
	g := batchGraph(25)
	q := sparql.MustParse(g.Dict, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	all := Find(q, g.Snapshot(), Options{})
	if len(all) != 25 {
		t.Fatalf("Find found %d matches, want 25", len(all))
	}

	const size = 7
	cases := []struct {
		name  string
		limit int // the callback stops once it holds this many; 0: never
		sizes []int
	}{
		{"sequential", 0, []int{7, 7, 7, 4}},
		{"limit", 10, []int{7, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []Match
			var sizes []int
			FindBatches(q, g.Snapshot(), Options{}, size, func(ms []Match) bool {
				got = append(got, ms...)
				sizes = append(sizes, len(ms))
				return tc.limit == 0 || len(got) < tc.limit
			})
			if fmt.Sprint(sizes) != fmt.Sprint(tc.sizes) {
				t.Errorf("batch sizes = %v, want %v", sizes, tc.sizes)
			}
			if !reflect.DeepEqual(got, all[:len(got)]) {
				t.Errorf("the batches hold %d matches that are not Find's first %d", len(got), len(got))
			}
		})
	}
}

func TestFindBatchesEarlyStop(t *testing.T) {
	g := batchGraph(30)
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <p> ?y . }`)
	calls := 0
	FindBatches(q, g.Snapshot(), Options{}, 5, func(ms []Match) bool {
		calls++
		return false // stop after the first batch
	})
	if calls != 1 {
		t.Errorf("fn called %d times after returning false, want 1", calls)
	}
}

func TestFindBatchesDefaultSize(t *testing.T) {
	g := batchGraph(10)
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <p> ?y . }`)
	n := 0
	FindBatches(q, g.Snapshot(), Options{}, 0, func(ms []Match) bool {
		n += len(ms)
		return true
	})
	if n != 10 {
		t.Errorf("default batch size streamed %d matches, want 10", n)
	}
}

// TestFindBatchesSmallAnswerAllocatesNoBatch guards the per-evaluation
// batch: its slice grows from four slots, so a 9-match query must not pay
// for a size-capacity batch (256 × 56 B = 14 KB) — what it allocates is
// its nine matches, slices of 4, 8 and 16 slots, and the searcher.
func TestFindBatchesSmallAnswerAllocatesNoBatch(t *testing.T) {
	g := batchGraph(9)
	q := sparql.MustParse(g.Dict, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	sn := g.Snapshot()
	defer sn.Close()
	const size = 256
	run := func() {
		n := 0
		FindBatches(q, sn, Options{}, size, func(ms []Match) bool {
			n += len(ms)
			return true
		})
		if n != 9 {
			t.Fatalf("found %d matches, want 9", n)
		}
	}
	run()
	perRun := make([]uint64, 51)
	var before, after runtime.MemStats
	for i := range perRun {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		perRun[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perRun)
	median := perRun[len(perRun)/2]
	if batch := uint64(size * unsafe.Sizeof(Match{})); median >= batch/2 {
		t.Errorf("a 9-match FindBatches typically allocates %d B; it is paying for a %d B batch", median, batch)
	}
}
