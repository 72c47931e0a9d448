package exec

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// genBatches draws a stream of batches over width columns from a small
// value domain, so rows repeat within a batch and across batches; some
// batches are empty.
func genBatches(rng *rand.Rand, width int) [][]rdf.ID {
	batches := make([][]rdf.ID, rng.Intn(12))
	for i := range batches {
		batches[i] = make([]rdf.ID, rng.Intn(40)*width)
		for k := range batches[i] {
			batches[i][k] = rdf.ID(rng.Intn(3))
		}
	}
	return batches
}

// feed copies batches into a closed channel, each into an array of match's
// free list as a site's batch is: consume owns what it receives, may
// overwrite it and hands it back, so every run gets its own copy.
func feed(vars []string, batches [][]rdf.ID) <-chan *match.Bindings {
	ch := make(chan *match.Bindings, len(batches))
	for _, rows := range batches {
		ch <- match.Recyclable(vars, append(match.TakeRows(len(rows)), rows...), len(rows)/len(vars))
	}
	close(ch)
	return ch
}

// rowsEqual: got holds exactly the rows want, in that order.
func rowsEqual(got *match.Bindings, want [][]rdf.ID) bool {
	return got.Len() == len(want) && slices.Equal(got.Rows, slices.Concat(want...))
}

// TestConsumeSortDedupMatchesRowSetProperty: without a LIMIT consume
// drops duplicates as neighbours after its sort; with one it counts
// distinct rows in a rowSet as they arrive. On the same input — with a
// LIMIT too large to cut anything — both return the distinct projected
// rows in Dedup order, which is also what a map and a sort make of them.
func TestConsumeSortDedupMatchesRowSetProperty(t *testing.T) {
	e := &Engine{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(6)
		vars := make([]string, width)
		for i := range vars {
			vars[i] = fmt.Sprintf("v%d", i)
		}
		q := &sparql.Graph{}
		proj := make([]int, width)
		for i := range proj {
			proj[i] = i
		}
		if rng.Intn(2) == 0 { // project onto a shuffled subset, plus a variable the rows lack
			rng.Shuffle(width, func(i, j int) { proj[i], proj[j] = proj[j], proj[i] })
			proj = proj[:1+rng.Intn(width)]
			for _, i := range proj {
				q.Select = append(q.Select, vars[i])
			}
			q.Select = append(q.Select, "absent")
		}
		batches := genBatches(rng, width)

		distinct := map[string][]rdf.ID{}
		for _, rows := range batches {
			for row := range slices.Chunk(rows, width) {
				r := make([]rdf.ID, len(proj))
				for k, j := range proj {
					r[k] = row[j]
				}
				distinct[fmt.Sprint(r)] = r
			}
		}
		var want [][]rdf.ID
		for _, r := range distinct {
			want = append(want, r)
		}
		slices.SortFunc(want, match.RowCompare)

		sorted := e.consume(context.Background(), func() {}, q, feed(vars, batches), vars)
		limited := *q
		limited.Limit = len(want) + 1
		counted := e.consume(context.Background(), func() {}, &limited, feed(vars, batches), vars)
		for name, got := range map[string]*match.Bindings{"sort-dedup": sorted, "rowSet": counted} {
			if len(got.Vars) != len(proj) || !rowsEqual(got, want) {
				t.Logf("seed %d: %s path returned %d rows over %v, want %d", seed, name, got.Len(), got.Vars, len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConsumeLimitCancelsPipeline: the LIMIT path stops at the Limit-th
// distinct row — it cancels the pipeline and returns without draining a
// producer that would otherwise never finish.
func TestConsumeLimitCancelsPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan *match.Bindings)
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			b := &match.Bindings{Vars: []string{"x"}, Rows: []rdf.ID{rdf.ID(i / 2), rdf.ID(i / 2)}}
			select {
			case in <- b:
			case <-ctx.Done():
				return
			}
		}
	}()
	got := (&Engine{}).consume(ctx, cancel, &sparql.Graph{Limit: 3}, in, []string{"x"})
	if ctx.Err() == nil {
		t.Error("consume reached its LIMIT without cancelling the pipeline")
	}
	if want := [][]rdf.ID{{0}, {1}, {2}}; !rowsEqual(got, want) {
		t.Errorf("LIMIT 3 over duplicated rows returned %v, want %v", got.Rows, want)
	}
}

// TestConsumeReleasesEachBatchOnArrival: consume holds one input batch at
// a time — by the time it takes batch k+1, batch k is projected into the
// answer and handed back — with and without a pushed-down LIMIT, and the
// answer is what the batches held.
func TestConsumeReleasesEachBatchOnArrival(t *testing.T) {
	vars := []string{"x", "y"}
	for _, q := range []*sparql.Graph{{Select: []string{"y"}}, {Select: []string{"y"}, Limit: 1000}} {
		in, done := make(chan *match.Bindings), make(chan *match.Bindings)
		go func() { done <- (&Engine{}).consume(context.Background(), func() {}, q, in, vars) }()
		var prev *match.Bindings
		for k := range 10 {
			b := match.Recyclable(vars, append(match.TakeRows(4), rdf.ID(k), rdf.ID(k), rdf.ID(k), rdf.ID(k+1)), 2)
			in <- b // unbuffered: consume has taken b, and is done with prev
			if prev != nil && prev.Rows != nil {
				t.Errorf("limit %d: batch %d still holds its rows once batch %d was taken", q.Limit, k-1, k)
			}
			prev = b
		}
		close(in)
		got := <-done
		if prev.Rows != nil {
			t.Errorf("limit %d: the last batch still holds its rows once the answer is out", q.Limit)
		}
		if want := []rdf.ID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got.Rows, want) {
			t.Errorf("limit %d: answer %v, want %v", q.Limit, got.Rows, want)
		}
	}
}

// TestConsumeAllocs: draining 50 batches costs the result and its one row
// array — plus, when projecting, the kept variable names; nothing per
// batch, nothing per row and no set of seen rows.
func TestConsumeAllocs(t *testing.T) {
	const nBatches, perBatch = 50, 256
	vars := []string{"x", "y", "z"}
	batches := make([][]rdf.ID, nBatches)
	for i := range batches {
		batches[i] = make([]rdf.ID, perBatch*len(vars))
		for j := 0; j < perBatch; j++ {
			batches[i][3*j], batches[i][3*j+1] = rdf.ID(i), rdf.ID(j%100) // duplicates within every batch
		}
	}
	e := &Engine{}
	for _, tc := range []struct {
		name   string
		q      *sparql.Graph
		budget uint64
		rows   int
	}{
		{"select *", &sparql.Graph{}, 2, nBatches * 100},
		{"projected", &sparql.Graph{Select: []string{"y", "x"}}, 3, nBatches * 100},
	} {
		var least uint64 = 1 << 62
		for trial := 0; trial < 5; trial++ {
			in := feed(vars, batches)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := e.consume(context.Background(), func() {}, tc.q, in, vars)
			runtime.ReadMemStats(&after)
			if got.Len() != tc.rows {
				t.Fatalf("%s: %d rows, want %d", tc.name, got.Len(), tc.rows)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		t.Logf("%s: %d objects", tc.name, least)
		if least > tc.budget {
			t.Errorf("%s: consume of %d batches allocates %d objects, want <= %d", tc.name, nBatches, least, tc.budget)
		}
	}
}
