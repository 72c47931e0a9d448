package rdf

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRunIndexEqualsDenseTable: the run index answers as the dense offset
// table it was compacted from does, at the IDs where a bitmap word, the
// table or the ID space ends, and with the empty run past them.
func TestRunIndexEqualsDenseTable(t *testing.T) {
	sparse := make([]Triple, 0, 1000)
	r := rand.New(rand.NewSource(3))
	for len(sparse) < cap(sparse) {
		sparse = append(sparse, Triple{S: ID(r.Intn(1 << 20)), P: ID(r.Intn(1 << 20)), O: ID(r.Intn(1 << 20))})
	}
	sparse = append(distinct(sparse), Triple{S: 1<<20 - 1, P: 1 << 20, O: 64}, Triple{S: 63, P: 65, O: 0})
	for name, order := range map[string][]Triple{
		"empty":             nil,
		"only subject is 0": {{S: 0, P: 0, O: 0}, {S: 0, P: 64, O: 63}, {S: 0, P: 64, O: 65}},
		"IDs up to 1<<20":   sparse,
	} {
		spo := slices.Clone(order)
		slices.SortFunc(spo, CompareSPO)
		got, want := buildCSR(spo), buildCSRThreeSorts(order)
		n := ID(len(want.outOff) - 1) // the ID-space bound
		probes := []ID{0, 1, 62, 63, 64, 65, 127, 128, n - 1, n, n + 1, n + 63, n + 64, math.MaxUint32 - 1, math.MaxUint32}
		for _, tr := range order {
			probes = append(probes, tr.S, tr.P, tr.O, tr.S+1, tr.O-1)
		}
		for _, v := range probes {
			if !slices.Equal(got.out(v), denseRun(want.outArena, want.outOff, v)) ||
				!slices.Equal(got.in(v), denseRun(want.inArena, want.inOff, v)) ||
				!slices.Equal(got.pred(v), denseRun(want.predArena, want.predOff, v)) {
				t.Errorf("%s: a run of ID %d differs from the dense table's", name, v)
			}
			lo, hi := got.outRuns.run(v)
			if dense := denseRun(want.outArena, want.outOff, v); len(dense) > 0 && (lo != want.outOff[v] || hi != want.outOff[v+1]) {
				t.Errorf("%s: out run of ID %d at [%d, %d), the dense table has [%d, %d)", name, v, lo, hi, want.outOff[v], want.outOff[v+1])
			}
		}
		if !slices.Equal(slices.Collect(keys(got.outRuns, got.inRuns)), want.verts) || !slices.Equal(got.preds, want.preds) {
			t.Errorf("%s: verts or preds differ from the dense build's", name)
		}
		if words := len(got.outRuns.words) + len(got.inRuns.words) + len(got.predRuns.words); words > 3*(int(n)/64+1) {
			t.Errorf("%s: %d bitmap words for an ID space of %d", name, words, n)
		}
		if runs := len(got.outRuns.off) + len(got.inRuns.off) + len(got.predRuns.off); runs > 3*(len(order)+1) {
			t.Errorf("%s: %d run bounds for %d triples", name, runs, len(order))
		}
	}
}

// TestRunKeysStopWhereTheLoopBreaks: the IDs a snapshot's walks range
// over — the CSR's run-index bitmaps merged with the delta's keys, some
// of those below, some between and some above the CSR's — come out
// ascending and distinct, and a loop that breaks after k of them has seen
// the first k and is not called again.
func TestRunKeysStopWhereTheLoopBreaks(t *testing.T) {
	g := NewFrozen(nil, []Triple{{S: 10, P: 1, O: 70}, {S: 70, P: 1, O: 10}, {S: 200, P: 2, O: 10}})
	for _, tr := range []Triple{{S: 3, P: 1, O: 10}, {S: 64, P: 2, O: 3}, {S: 300, P: 1, O: 301}, {S: 10, P: 2, O: 300}} {
		g.Add(tr)
	}
	sn := g.Snapshot()
	defer sn.Close()
	vertices := func() func(func(ID) bool) {
		return sn.runKeys(sn.gen.csr.outRuns, sn.gen.csr.inRuns, &sn.gen.delta.out, &sn.gen.delta.in)
	}
	all := slices.Collect(vertices())
	if want := []ID{3, 10, 64, 70, 200, 300, 301}; !slices.Equal(all, want) {
		t.Fatalf("runKeys = %v, want %v", all, want)
	}
	for k := 1; k <= len(all); k++ {
		var got []ID
		for v := range vertices() {
			if got = append(got, v); len(got) == k {
				break
			}
		}
		if !slices.Equal(got, all[:k]) {
			t.Errorf("a loop that breaks after %d saw %v, want %v", k, got, all[:k])
		}
	}
	for v := range keys(sn.gen.csr.outRuns, sn.gen.csr.inRuns) {
		if v != 10 {
			t.Errorf("the first ID with a CSR run is %d, want 10", v)
		}
		break
	}
}
