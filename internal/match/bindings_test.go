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
func referenceBatches(q *sparql.Graph, g *rdf.Snapshot, opts Options, size int) [][][]rdf.ID {
	var out [][][]rdf.ID
	FindBatches(q, g, opts, size, func(ms []Match) bool {
		out = append(out, ToBindings(q, ms).Rows)
		return true
	})
	return out
}

func emittedBatches(t *testing.T, q *sparql.Graph, g *rdf.Snapshot, opts Options, size, stopAfter int) [][][]rdf.ID {
	t.Helper()
	var out [][][]rdf.ID
	vars := q.Vars()
	FindBindings(q, g, opts, size, func(b *Bindings) bool {
		if !slices.Equal(b.Vars, vars) {
			t.Errorf("batch vars = %v, want %v", b.Vars, vars)
		}
		for _, r := range b.Rows {
			if r == nil || len(r) != len(vars) || cap(r) != len(r) {
				t.Errorf("row %v: len %d cap %d, want a non-nil row capped at %d", r, len(r), cap(r), len(vars))
			}
		}
		out = append(out, b.Rows)
		return len(out) != stopAfter
	})
	return out
}

func flattenSorted(batches [][][]rdf.ID) [][]rdf.ID {
	var all [][]rdf.ID
	for _, b := range batches {
		all = append(all, b...)
	}
	slices.SortFunc(all, RowCompare)
	return all
}

func sameRows(a, b [][]rdf.ID) bool {
	return slices.EqualFunc(a, b, func(x, y []rdf.ID) bool { return slices.Equal(x, y) })
}

// TestFindBindingsMatchesFindBatchesProperty: FindBindings emits what
// ToBindings makes of FindBatches — the same row multiset in every mode,
// and with one enumerating goroutine (Parallelism 1) or the morsel-order
// merge (Deterministic) the identical sequence of batches, which the
// transport's resume-by-batch-number depends on. A sink that refuses
// stops it after exactly that batch.
func TestFindBindingsMatchesFindBatchesProperty(t *testing.T) {
	modes := []struct {
		name    string
		opts    Options
		ordered bool
	}{
		{"sequential", Options{Parallelism: 1}, true},
		{"deterministic", Options{Parallelism: 4, Deterministic: true}, true},
		{"streaming", Options{Parallelism: 4}, false},
	}
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
		for _, mode := range modes {
			opts := mode.opts
			if filter {
				opts.VertexFilter = func(qv int, id rdf.ID) bool { return (int(id)+qv)%3 != 0 }
			}
			want := referenceBatches(q, sn, opts, size)
			got := emittedBatches(t, q, sn, opts, size, 0)
			if !sameRows(flattenSorted(got), flattenSorted(want)) {
				t.Logf("%s: seeds %d/%d: row multiset differs (%d batches vs %d)", mode.name, dataSeed, querySeed, len(got), len(want))
				return false
			}
			if mode.ordered && !slices.EqualFunc(got, want, sameRows) {
				t.Logf("%s: seeds %d/%d: batch sequence differs", mode.name, dataSeed, querySeed)
				return false
			}
			// How many batches an unordered run delivers depends on which
			// worker claimed which morsel; rows/size is the fewest.
			least := len(want)
			if !mode.ordered {
				full := size
				if full == 0 {
					full = 256
				}
				least = (len(flattenSorted(want)) + full - 1) / full
			}
			if least < 2 {
				continue
			}
			stop := 1 + rng.Intn(least-1)
			cut := emittedBatches(t, q, sn, opts, size, stop)
			if len(cut) != stop {
				t.Logf("%s: sink refused batch %d, was called %d times", mode.name, stop, len(cut))
				return false
			}
			if mode.ordered && !slices.EqualFunc(cut, want[:stop], sameRows) {
				t.Logf("%s: the %d batches before the stop differ", mode.name, stop)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestFindBindingsBatchesAreTheReceivers: batches never share a row or a
// header slot, so a receiver may sort, overwrite and keep each one while
// the search goes on — the contract cluster.BatchSink states.
func TestFindBindingsBatchesAreTheReceivers(t *testing.T) {
	g := batchGraph(300)
	q := sparql.MustParse(g.Dict, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	for _, opts := range []Options{{Parallelism: 1}, {Parallelism: 4}, {Parallelism: 4, Deterministic: true}} {
		var kept []*Bindings
		FindBindings(q, g.Snapshot(), opts, 7, func(b *Bindings) bool {
			for i := range b.Rows {
				b.Rows[i] = append(b.Rows[i], rdf.NoID) // must not reach a neighbour
			}
			kept = append(kept, b)
			return true
		})
		seen := map[string]bool{}
		for _, b := range kept {
			for _, r := range b.Rows {
				if len(r) != 3 || r[2] != rdf.NoID {
					t.Fatalf("opts %+v: kept row %v was overwritten", opts, r)
				}
				seen[fmt.Sprint(r[:2])] = true
			}
		}
		if len(seen) != 300 {
			t.Errorf("opts %+v: %d distinct rows survived in the kept batches, want 300", opts, len(seen))
		}
	}
}

// TestFindBindingsChunksGrowFromFourRows: a small answer pays for a small
// chunk. Nine two-column rows fit chunks of 4 and 8 rows (96 B) and
// headers of 4, 8 and 16 (672 B); a batch-sized chunk and header up front
// would be 2 KB + 6 KB.
func TestFindBindingsChunksGrowFromFourRows(t *testing.T) {
	g := batchGraph(9)
	q := sparql.MustParse(g.Dict, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	p := newProjector(q)
	m := Match{Vertex: make([]rdf.ID, len(q.Verts))}
	allocs := testing.AllocsPerRun(100, func() {
		c := rowChunks{p: p, size: 256}
		b := batcher[[]rdf.ID]{keep: c.carve, size: 256}
		for i := 0; i < 9; i++ {
			b.add(&m)
		}
		if got := b.take(); len(got) != 9 || cap(got) != 16 {
			t.Fatalf("batch holds %d rows in a header of %d, want 9 in 16", len(got), cap(got))
		}
		if c.grow != 8 {
			t.Fatalf("last chunk holds %d rows, want 8", c.grow)
		}
	})
	// Chunks of 4 and 8 rows, headers of 4, 8 and 16, the rowChunks and
	// its bound carve.
	if allocs > 7 {
		t.Errorf("nine rows cost %.0f allocations, want at most 7", allocs)
	}
}
