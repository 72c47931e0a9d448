package match

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// bindingQuery turns a randomQuery into one of the shapes the projection
// must survive: as generated; with predicate variables (one of them named
// like a vertex variable, which the vertex wins); with every variable
// replaced by a constant (zero columns); anchored at one constant.
func bindingQuery(rng *rand.Rand, seed int64) *sparql.Graph {
	base := randomQuery(seed, 3)
	shape := rng.Intn(4)
	q := sparql.NewGraph()
	konst := map[string]rdf.ID{}
	vertex := func(v sparql.Vertex) sparql.Vertex {
		if shape == 2 || (shape == 3 && v.Var == "x") {
			if _, ok := konst[v.Var]; !ok {
				konst[v.Var] = rdf.ID(rng.Intn(6))
			}
			return sparql.Vertex{Term: konst[v.Var]}
		}
		return v
	}
	for _, e := range base.Edges {
		edge := sparql.Edge{Pred: e.Pred}
		if shape == 1 && rng.Intn(2) == 0 {
			edge = sparql.Edge{PredVar: []string{"p", "q", "x"}[rng.Intn(3)]}
		}
		q.AddTriplePattern(vertex(base.Verts[e.From]), edge, vertex(base.Verts[e.To]))
	}
	return q
}

// referenceBatches is the path FindBindings replaced: whole matches,
// batch by batch, projected afterwards.
func referenceBatches(q *sparql.Graph, g *rdf.Snapshot, opts Options, size int) []*Bindings {
	var out []*Bindings
	FindBatches(q, g, opts, size, func(ms []Match) bool {
		out = append(out, ToBindings(q, ms))
		return true
	})
	return out
}

func emittedBatches(t *testing.T, q *sparql.Graph, g *rdf.Snapshot, opts Options, size, stopAfter int) []*Bindings {
	t.Helper()
	var out []*Bindings
	vars := q.Vars()
	FindBindings(q, g, opts, size, func(b *Bindings) bool {
		if !slices.Equal(b.Vars, vars) {
			t.Errorf("batch vars = %v, want %v", b.Vars, vars)
		}
		if len(b.Rows) != b.Len()*len(vars) || b.Len() == 0 || (len(vars) > 0 && b.Nullary != 0) {
			t.Errorf("batch of %d rows over %v holds %d IDs, Nullary %d", b.Len(), vars, len(b.Rows), b.Nullary)
		}
		out = append(out, b)
		return len(out) != stopAfter
	})
	return out
}

// tableRows lists a table's rows; an empty tuple is an empty row.
func tableRows(b *Bindings) [][]rdf.ID {
	w := len(b.Vars)
	rows := make([][]rdf.ID, b.Len())
	for i := range rows {
		rows[i] = b.Rows[i*w : (i+1)*w]
	}
	return rows
}

func sameRows(a, b [][]rdf.ID) bool {
	return slices.EqualFunc(a, b, func(x, y []rdf.ID) bool { return slices.Equal(x, y) })
}

func sameBatch(a, b *Bindings) bool { return sameRows(tableRows(a), tableRows(b)) }

// TestFindBindingsMatchesFindBatchesProperty: FindBindings emits what
// ToBindings makes of FindBatches, batch for batch. A sink that refuses
// stops it after exactly that batch.
func TestFindBindingsMatchesFindBatchesProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64, freeze, filter bool) bool {
		rng := rand.New(rand.NewSource(dataSeed ^ querySeed))
		g := randomData(dataSeed, 40+rng.Intn(400))
		if freeze {
			g.Freeze()
			g.Add(rdf.Triple{S: 1, P: 6, O: 2}) // a delta run beside the CSR
		}
		q := bindingQuery(rng, querySeed)
		size := rng.Intn(40) // 0: the default batch size
		sn := g.Snapshot()
		defer sn.Close()
		FindBindings(sparql.NewGraph(), sn, Options{}, size, func(*Bindings) bool {
			t.Error("a query without edges emitted a batch")
			return false
		})
		var opts Options
		if filter {
			opts.VertexFilter = func(qv int, id rdf.ID) bool { return (int(id)+qv)%3 != 0 }
		}
		want := referenceBatches(q, sn, opts, size)
		got := emittedBatches(t, q, sn, opts, size, 0)
		if !slices.EqualFunc(got, want, sameBatch) {
			t.Logf("seeds %d/%d: batch sequence differs (%d batches vs %d)", dataSeed, querySeed, len(got), len(want))
			return false
		}
		if len(want) < 2 {
			return true
		}
		stop := 1 + rng.Intn(len(want)-1)
		cut := emittedBatches(t, q, sn, opts, size, stop)
		if len(cut) != stop {
			t.Logf("sink refused batch %d, was called %d times", stop, len(cut))
			return false
		}
		if !slices.EqualFunc(cut, want[:stop], sameBatch) {
			t.Logf("the %d batches before the stop differ", stop)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestFindBindingsBatchesAreTheReceivers: batches never share storage, so
// a receiver may sort, overwrite, append to and keep each one while the
// search goes on — the contract cluster.BatchSink states.
func TestFindBindingsBatchesAreTheReceivers(t *testing.T) {
	g := batchGraph(300)
	q := sparql.MustParse(g.Dict, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	var kept, copies []*Bindings
	FindBindings(q, g.Snapshot(), Options{}, 7, func(b *Bindings) bool {
		copies = append(copies, &Bindings{Vars: b.Vars, Rows: slices.Clone(b.Rows)})
		_ = append(b.Rows, rdf.NoID, rdf.NoID) // must not reach a neighbour
		slices.Reverse(b.Rows)
		kept = append(kept, b)
		return true
	})
	seen := map[string]bool{}
	for i, b := range kept {
		slices.Reverse(b.Rows)
		if !sameBatch(b, copies[i]) {
			t.Fatalf("kept batch %d was overwritten: %v, was %v", i, b.Rows, copies[i].Rows)
		}
		for _, r := range tableRows(b) {
			seen[fmt.Sprint(r)] = true
		}
	}
	if len(seen) != 300 {
		t.Errorf("%d distinct rows survived in the kept batches, want 300", len(seen))
	}
}

// TestFindBindingsChunksGrowFromFourRows: a small answer pays for a small
// batch. Nine two-column rows go through arrays of 4, 8 and 16 rows (224
// B) and nothing else; a batch-sized array up front would be 2 KB. The two
// arrays the batch outgrows go back to the free list and are taken again
// by the next run.
func TestFindBindingsChunksGrowFromFourRows(t *testing.T) {
	g := batchGraph(9)
	q := sparql.MustParse(g.Dict, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	p := newProjector(q, nil)
	m := Match{Vertex: make([]rdf.ID, len(q.Verts))}
	allocs := testing.AllocsPerRun(100, func() {
		b := newBatcher(p.appendRow, TakeRows, GiveRows, 2, 256)
		for i := 0; i < 9; i++ {
			b.add(&m)
		}
		if got := b.take(); len(got) != 9*2 || cap(got) != 16*2 {
			t.Fatalf("batch holds %d IDs in an array of %d, want 18 in 32", len(got), cap(got))
		}
	})
	// Arrays of 4, 8 and 16 rows, and the bound appendRow.
	if allocs > 4 {
		t.Errorf("nine rows cost %.0f allocations, want at most 4", allocs)
	}
}

// TestDedupMatchesSortedSetProperty: Dedup's in-place record sort leaves
// exactly the distinct rows in lexicographic order, at every width — no
// variables included — on random, constant, ascending and descending
// tables, and also when the quicksort gives up at once and hands over to
// sort.Sort.
func TestDedupMatchesSortedSetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, n, domain := rng.Intn(7), rng.Intn(300), 1+rng.Intn(40)
		b := NewBindings(make([]string, w), nil, n)
		for i := 0; i < n*w; i++ {
			b.Rows = append(b.Rows, rdf.ID(rng.Intn(domain)))
		}
		switch rng.Intn(4) {
		case 0:
			b.Dedup() // ascending input
			n = b.Len()
		case 1:
			b.Dedup()
			n = b.Len()
			for i := 0; i < n/2; i++ {
				for k := 0; k < w; k++ {
					b.Rows[i*w+k], b.Rows[(n-1-i)*w+k] = b.Rows[(n-1-i)*w+k], b.Rows[i*w+k]
				}
			}
		}
		want := tableRows(b)
		slices.SortFunc(want, RowCompare)
		want = slices.CompactFunc(want, func(x, y []rdf.ID) bool { return slices.Equal(x, y) })
		if w == 0 {
			want = want[:min(n, 1)]
		}
		wantFlat := slices.Concat(want...)

		viaFallback := slices.Clone(b.Rows)
		if w > 0 {
			(&records{viaFallback, w}).sort(0, n, 0)
			if !slices.IsSortedFunc(tableRows(&Bindings{Vars: b.Vars, Rows: viaFallback}), RowCompare) {
				t.Logf("seed %d: the sort.Sort fallback left %v", seed, viaFallback)
				return false
			}
		}
		b.Dedup()
		if b.Len() != len(want) || !slices.Equal(b.Rows, wantFlat) {
			t.Logf("seed %d: width %d, %d rows: Dedup left %v, want %v", seed, w, n, b.Rows, wantFlat)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestSortStableMatchesSliceSort: SortStable, keyed on one column and
// swapping rows where they lie, leaves what slices.SortStableFunc leaves
// of the same rows as separate slices — equal keys in their first order —
// at every width, none included.
func TestSortStableMatchesSliceSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, n := rng.Intn(5), rng.Intn(200)
		b := NewBindings(make([]string, w), nil, n)
		for i := 0; i < n*w; i++ {
			b.Rows = append(b.Rows, rdf.ID(rng.Intn(8)))
		}
		want := tableRows(NewBindings(b.Vars, slices.Clone(b.Rows), n))
		slices.SortStableFunc(want, func(x, y []rdf.ID) int { return slices.Compare(x[:min(w, 1)], y[:min(w, 1)]) })
		b.SortStable(func(i, j int) bool { return b.Rows[i*w] < b.Rows[j*w] }) // never called at width 0
		if got := tableRows(b); !sameRows(got, want) || b.Len() != n {
			t.Logf("seed %d: width %d: SortStable left %v, want %v", seed, w, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
