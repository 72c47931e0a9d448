package exec

import (
	"context"
	"errors"
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

// feed copies batches, each into an array of match's free list as a
// site's batch is: the answer owns what is pushed to it, may overwrite it
// and hands it back, so every run gets its own copy.
func feed(vars []string, batches [][]rdf.ID) []*match.Bindings {
	out := make([]*match.Bindings, len(batches))
	for i, rows := range batches {
		out[i] = match.Recyclable(vars, append(match.TakeRows(len(rows)), rows...), len(rows)/len(vars))
	}
	return out
}

// consume pushes the batches in into a fresh answer to q over vars, as
// the last stage of a join chain does, and returns the result.
func consume(q *sparql.Graph, in []*match.Bindings, vars []string) *match.Bindings {
	a := new(answer)
	a.init(q, vars)
	for _, b := range in {
		if a.Push(b, true) != nil {
			break
		}
	}
	return a.result()
}

// rowsEqual: got holds exactly the rows want, in that order.
func rowsEqual(got *match.Bindings, want [][]rdf.ID) bool {
	return got.Len() == len(want) && slices.Equal(got.Rows, slices.Concat(want...))
}

// TestConsumeSortDedupMatchesRowSetProperty: without a LIMIT the answer
// drops duplicates as neighbours after its sort; with one it counts
// distinct rows in a rowSet as they arrive. On the same input — with a
// LIMIT too large to cut anything — both return the distinct projected
// rows in Dedup order, which is also what a map and a sort make of them.
func TestConsumeSortDedupMatchesRowSetProperty(t *testing.T) {
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

		sorted := consume(q, feed(vars, batches), vars)
		limited := *q
		limited.Limit = len(want) + 1
		counted := consume(&limited, feed(vars, batches), vars)
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
// distinct row — the push that brings it is refused with errLimit, which
// stops the unit that pushed, and stop cancels the others — and every
// later push is refused and its batch handed back.
func TestConsumeLimitCancelsPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &answer{stop: cancel}
	a.init(&sparql.Graph{Limit: 3}, []string{"x"})
	pushes := 0
	for i := 0; ; i++ {
		b := match.Recyclable([]string{"x"}, append(match.TakeRows(2), rdf.ID(i/2), rdf.ID(i/2)), 2)
		pushes++
		if err := a.Push(b, true); err != nil {
			if !errors.Is(err, errLimit) {
				t.Fatalf("push %d refused with %v, want errLimit", pushes, err)
			}
			break
		}
	}
	if pushes != 5 || ctx.Err() == nil {
		t.Errorf("the third distinct row came with push %d (want 5), pipeline cancelled: %v", pushes, ctx.Err() != nil)
	}
	late := match.Recyclable([]string{"x"}, append(match.TakeRows(1), 9), 1)
	if err := a.Push(late, true); !errors.Is(err, errLimit) || late.Rows != nil {
		t.Errorf("a push after the LIMIT: err %v, batch handed back %v; want errLimit and true", err, late.Rows == nil)
	}
	if got, want := a.result(), [][]rdf.ID{{0}, {1}, {2}}; !rowsEqual(got, want) {
		t.Errorf("LIMIT 3 over duplicated rows returned %v, want %v", got.Rows, want)
	}
}

// TestConsumeReleasesEachBatchOnArrival: the answer holds no input batch —
// by the time a push returns, its batch is projected into the answer and
// handed back — with and without a pushed-down LIMIT, and the answer is
// what the batches held.
func TestConsumeReleasesEachBatchOnArrival(t *testing.T) {
	vars := []string{"x", "y"}
	for _, q := range []*sparql.Graph{{Select: []string{"y"}}, {Select: []string{"y"}, Limit: 1000}} {
		a := new(answer)
		a.init(q, vars)
		for k := range 10 {
			b := match.Recyclable(vars, append(match.TakeRows(4), rdf.ID(k), rdf.ID(k), rdf.ID(k), rdf.ID(k+1)), 2)
			if err := a.Push(b, true); err != nil {
				t.Fatalf("limit %d: push %d: %v", q.Limit, k, err)
			}
			if b.Rows != nil {
				t.Errorf("limit %d: batch %d still holds its rows once its push returned", q.Limit, k)
			}
		}
		if got, want := a.result(), []rdf.ID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got.Rows, want) {
			t.Errorf("limit %d: answer %v, want %v", q.Limit, got.Rows, want)
		}
	}
}

// TestConsumeAllocs: pushing 50 batches into an answer costs the result
// and its one row array — plus, when projecting, the kept variable names;
// nothing per batch, nothing per row and no set of seen rows.
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
			in, a := feed(vars, batches), new(answer)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a.init(tc.q, vars)
			for _, b := range in {
				if err := a.Push(b, true); err != nil {
					t.Fatal(err)
				}
			}
			got := a.result()
			runtime.ReadMemStats(&after)
			if got.Len() != tc.rows {
				t.Fatalf("%s: %d rows, want %d", tc.name, got.Len(), tc.rows)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		t.Logf("%s: %d objects", tc.name, least)
		if least > tc.budget {
			t.Errorf("%s: an answer of %d batches allocates %d objects, want <= %d", tc.name, nBatches, least, tc.budget)
		}
	}
}
