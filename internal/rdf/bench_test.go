package rdf

import (
	"slices"
	"testing"
)

// benchGraph is a frozen graph of the benchmark input's proportions —
// some 50 000 triples over 20 000 vertices and 40 predicates — with a
// delta of inserts and tombstones on top, and probes half of which it
// holds.
func benchGraph(b *testing.B) (*Graph, []Triple) {
	b.Helper()
	g := NewFrozen(nil, randomTriples(1, 50000, 20000, 40))
	g.SetAutoCompact(-1)
	live := slices.Clone(g.Triples())
	for i := 0; i < 200; i++ {
		g.Delete(live[i*97])
		g.Add(Triple{S: live[i*89].S, P: live[i*89].P, O: ID(30000 + i)})
	}
	probes := randomTriples(2, 512, 20000, 40) // all but a few absent
	live = g.Triples()
	for i := 0; i < 512; i++ {
		probes = append(probes, live[i*97])
	}
	return g, probes
}

// BenchmarkSnapshotHas: one membership test of a pinned snapshot, over a
// CSR and a delta with tombstones.
func BenchmarkSnapshotHas(b *testing.B) {
	g, probes := benchGraph(b)
	sn := g.Snapshot()
	defer sn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if sn.has(probes[i&1023]) {
			n++
		}
	}
	if b.N >= 1024 && n < b.N/4 {
		b.Fatalf("%d of %d probes present, want about half", n, b.N)
	}
}

// BenchmarkUpdateDuplicateAdd: what the writer pays to find out that a
// triple of an update batch is already there (or, for Delete, is not).
func BenchmarkUpdateDuplicateAdd(b *testing.B) {
	g, probes := benchGraph(b)
	present := probes[512:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Add(present[i&511]) {
			b.Fatal("a duplicate Add reported the triple new")
		}
	}
}

// BenchmarkUpdateAddDelete: one new triple into the delta and out again,
// and every 2 048th time the delta into the next generation.
func BenchmarkUpdateAddDelete(b *testing.B) {
	g, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Triple{S: ID(i % 20000), P: ID(20000 + i%40), O: ID(40000 + i%64)}
		if i%2048 == 2047 {
			g.Compact()
		}
		if !g.Add(t) || !g.Delete(t) {
			b.Fatal("a new triple's Add or its Delete was a no-op")
		}
	}
}
