package match

// Mixed add+query benchmarks for the live-update delta overlay: a
// read-mostly workload (selective point lookups) interleaved with a 1%
// stream of mutations. Add and Delete go to the frozen graph's delta
// index and reads merge it, with the default auto-compaction threshold
// amortizing rebuilds.

import (
	"fmt"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// liveUpdateRatio is one update per this many queries (1%).
const liveUpdateRatio = 100

func liveBenchSetup(b *testing.B) (*rdf.Graph, *sparql.Graph) {
	b.Helper()
	wd := watdiv.Generate(watdiv.Options{Triples: 100000, Seed: 20160315})
	g := wd.Graph
	// A constant-anchored point lookup on a real vertex: the read-mostly
	// shape live services serve, cheap enough that update cost shows.
	t0 := g.Triples()[0]
	q := sparql.NewGraph()
	q.AddTriplePattern(
		sparql.Vertex{Term: t0.S},
		sparql.Edge{Pred: t0.P},
		sparql.Vertex{Var: "x"},
	)
	return g, q
}

// BenchmarkLiveMixedAddDeleteQuery extends the mixed live benchmark with
// deletes: update ticks alternate between inserting a fresh triple and
// tombstoning the one inserted on the previous tick, so the visible
// window carries both insert and tombstone runs while the read-mostly
// lookups stream on.
func BenchmarkLiveMixedAddDeleteQuery(b *testing.B) {
	g, q := liveBenchSetup(b)
	obj := g.Triples()[1].O
	pred := g.Triples()[0].P
	serial := 0
	var last rdf.Triple
	havePending := false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%liveUpdateRatio == 0 {
			if havePending {
				g.Delete(last)
				havePending = false
			} else {
				s := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("livedel%d", serial)))
				serial++
				last = rdf.Triple{S: s, P: pred, O: obj}
				g.Add(last)
				havePending = true
			}
		}
		if n := searchCount(q, g.Snapshot()); n == 0 {
			b.Fatal("point lookup matched nothing")
		}
	}
}

// BenchmarkLiveSlowlyChangingGraph models the overwrite workload: a
// fixed population of entities whose attribute value rotates slowly —
// each update tick retires one entity's current triple and installs the
// next version (delete+add back to back, the storage shape an atomic
// overwrite batch produces), so the overlay carries a steady mix of
// tombstones and fresh versions proportional to churn, never growing
// with history. Read-mostly point lookups stream on throughout.
func BenchmarkLiveSlowlyChangingGraph(b *testing.B) {
	const entities = 16
	g, q := liveBenchSetup(b)
	pred := g.Triples()[0].P
	// Pre-intern the version objects and seed each entity at v0 so the
	// timed region swaps versions, never first-inserts.
	subj := make([]rdf.ID, entities)
	vers := make([]rdf.ID, entities*2)
	for e := 0; e < entities; e++ {
		subj[e] = g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("scd%d", e)))
	}
	for v := range vers {
		vers[v] = g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("scdv%d", v)))
	}
	cur := make([]int, entities)
	for e := 0; e < entities; e++ {
		g.Add(rdf.Triple{S: subj[e], P: pred, O: vers[0]})
	}
	g.Compact()
	serial := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%liveUpdateRatio == 0 {
			e := serial % entities
			serial++
			next := (cur[e] + 1) % len(vers)
			g.Delete(rdf.Triple{S: subj[e], P: pred, O: vers[cur[e]]})
			g.Add(rdf.Triple{S: subj[e], P: pred, O: vers[next]})
			cur[e] = next
		}
		if n := searchCount(q, g.Snapshot()); n == 0 {
			b.Fatal("point lookup matched nothing")
		}
	}
}

// BenchmarkLiveMixedAddQuery is the add-only mix: every update tick
// inserts a fresh triple beside the point lookups.
func BenchmarkLiveMixedAddQuery(b *testing.B) {
	g, q := liveBenchSetup(b)
	obj := g.Triples()[1].O
	pred := g.Triples()[0].P
	serial := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%liveUpdateRatio == 0 {
			s := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("live%d", serial)))
			serial++
			g.Add(rdf.Triple{S: s, P: pred, O: obj})
		}
		if n := searchCount(q, g.Snapshot()); n == 0 {
			b.Fatal("point lookup matched nothing")
		}
	}
}
