package match

import (
	"fmt"
	"runtime"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// searchCount counts q's matches by the search, which Count no longer
// runs for a tree pattern.
func searchCount(q *sparql.Graph, g *rdf.Snapshot) int {
	n := 0
	ForEach(q, g, Options{}, func(*Match) bool { n++; return true })
	return n
}

// bindingsCount counts q's matches through FindBindings, as a site
// evaluating a subquery does: its batches are in what it allocates.
func bindingsCount(q *sparql.Graph, g *rdf.Snapshot) int {
	n := 0
	FindBindings(q, g, Options{}, 0, func(b *Bindings) bool {
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
// the inner loop of every bound-endpoint expansion.
func BenchmarkCandidateScan(b *testing.B) {
	g := hubGraph(4096, 16)
	g.Freeze() // measure the CSR run path, as production freeze sites do
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
	want := 4096 / 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := searchCount(q, g.Snapshot()); n != want {
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
// workload through FindBindings, the host-independent half of
// BenchmarkMatchWatDiv. It counts mallocs itself, at two procs, where
// testing.AllocsPerRun would run at one: a search that fanned out over
// the procs it is given would show here. The ceiling is what the
// workload measures plus 5%, which one allocation more per search
// exceeds.
func TestMatchWatDivAllocs(t *testing.T) {
	g, log := watDivFixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	run := func() {
		total := 0
		for _, q := range log {
			total += bindingsCount(q, g.Snapshot())
		}
		if total == 0 {
			t.Fatal("workload matched nothing")
		}
	}
	run()
	const runs, measured = 5, 797
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	if ceiling := measured * 1.05; allocs > ceiling {
		t.Errorf("the workload allocates %.0f times, want <= %.0f (%d measured)", allocs, ceiling, measured)
	}
}

// BenchmarkMatchWatDiv runs a fixed slice of WatDiv template queries over
// a WatDiv-shaped graph — the end-to-end matcher cost a site pays per
// subquery evaluation.
func BenchmarkMatchWatDiv(b *testing.B) {
	g, log := watDivFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, q := range log {
			total += bindingsCount(q, g.Snapshot())
		}
		if total == 0 {
			b.Fatal("workload matched nothing")
		}
	}
}
