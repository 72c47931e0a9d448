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
		got, want := buildCSR(order), buildCSRThreeSorts(order)
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
		if !slices.Equal(got.verts, want.verts) || !slices.Equal(got.preds, want.preds) {
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
