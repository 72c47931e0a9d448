package match

import (
	"fmt"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// searchCount counts q's matches by the search, which Count no longer
// runs for a tree pattern: through ForEach at Parallelism 1, as Count's
// sequential path did, and otherwise through FindBindings, which fans out
// as a site evaluating a subquery does.
func searchCount(q *sparql.Graph, g *rdf.Snapshot, opts Options) int {
	n := 0
	if opts.Parallelism == 1 {
		ForEach(q, g, opts, func(*Match) bool { n++; return true })
		return n
	}
	FindBindings(q, g, opts, 0, func(b *Bindings) bool {
		n += b.Len()
		b.Release()
		return true
	})
	return n
}

// hubGraph builds a graph dominated by one high-degree vertex: the hub has
// fanout outgoing edges spread uniformly over preds properties. This is
// the shape that punishes full-adjacency candidate scans — a bound subject
// with a constant predicate should only ever see fanout/preds edges.
func hubGraph(fanout, preds int) *rdf.Graph {
	g := rdf.NewGraph(nil)
	hub := g.Dict.Encode(rdf.NewIRI("hub"))
	ps := make([]rdf.ID, preds)
	for i := range ps {
		ps[i] = g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < fanout; i++ {
		o := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("o%d", i)))
		g.Add(rdf.Triple{S: hub, P: ps[i%preds], O: o})
	}
	return g
}

// BenchmarkCandidateScan measures the matcher's candidate enumeration for
// a constant-subject, constant-predicate edge on a high-fanout vertex:
// the inner loop of every bound-endpoint expansion. Parallelism is pinned
// to 1 so a multi-core host does not time the morsel fan-out instead.
func BenchmarkCandidateScan(b *testing.B) {
	g := hubGraph(4096, 16)
	g.Freeze() // measure the CSR run path, as production freeze sites do
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
	want := 4096 / 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := searchCount(q, g.Snapshot(), Options{Parallelism: 1}); n != want {
			b.Fatalf("count = %d, want %d", n, want)
		}
	}
}

// watDivFixture is the WatDiv-shaped graph and the 40 template queries
// the WatDiv benchmarks and their allocation guard run.
func watDivFixture(tb testing.TB) (*rdf.Graph, []*sparql.Graph) {
	tb.Helper()
	wd := watdiv.Generate(watdiv.Options{Triples: 20000, Seed: 20160315})
	log, err := wd.GenerateWorkload(40, 20160316)
	if err != nil {
		tb.Fatal(err)
	}
	return wd.Graph, log
}

// TestMatchWatDivAllocs bounds the allocations of the whole WatDiv
// workload, the host-independent half of BenchmarkMatchWatDiv. The count
// is deterministic for a given Parallelism (Options{} would follow
// GOMAXPROCS), so it is pinned at 1 and at 2; each ceiling is what the
// workload measures plus 5%, which one allocation more per search exceeds
// at Parallelism 1. At 2 the workload runs through FindBindings, whose
// batches are in the figure: a parallel Count, which measured 1020, no
// longer exists.
func TestMatchWatDivAllocs(t *testing.T) {
	g, log := watDivFixture(t)
	for _, tc := range []struct {
		parallelism int
		measured    float64
	}{{1, 400}, {2, 1479}} {
		opts := Options{Parallelism: tc.parallelism}
		allocs := testing.AllocsPerRun(5, func() {
			total := 0
			for _, q := range log {
				total += searchCount(q, g.Snapshot(), opts)
			}
			if total == 0 {
				t.Fatal("workload matched nothing")
			}
		})
		if ceiling := tc.measured * 1.05; allocs > ceiling {
			t.Errorf("Parallelism %d: the workload allocates %.0f times, want <= %.0f (%.0f measured)",
				tc.parallelism, allocs, ceiling, tc.measured)
		}
	}
}

// BenchmarkMatchWatDiv runs a fixed slice of WatDiv template queries over
// a WatDiv-shaped graph — the end-to-end matcher cost a site pays per
// subquery evaluation. Options{} means the morsel fan-out uses
// GOMAXPROCS workers, so this measures whatever parallelism the host
// grants (GOMAXPROCS=1 takes the sequential path).
func BenchmarkMatchWatDiv(b *testing.B) {
	g, log := watDivFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, q := range log {
			total += searchCount(q, g.Snapshot(), Options{})
		}
		if total == 0 {
			b.Fatal("workload matched nothing")
		}
	}
}

// BenchmarkMatchWatDivParallel sweeps the morsel worker count over the
// same workload — the scaling table of the parallel execution model.
// Real speedup requires GOMAXPROCS ≥ the worker count; on a single
// hardware thread the sweep instead measures the fan-out's overhead.
func BenchmarkMatchWatDivParallel(b *testing.B) {
	g, log := watDivFixture(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := Options{Parallelism: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				total := 0
				for _, q := range log {
					total += searchCount(q, g.Snapshot(), opts)
				}
				if total == 0 {
					b.Fatal("workload matched nothing")
				}
			}
		})
	}
}
