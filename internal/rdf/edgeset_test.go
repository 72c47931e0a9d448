package rdf

import (
	"slices"
	"testing"
	"testing/quick"
)

// denseCSR is the CSR as it was laid out: three arenas, each comparison-
// sorted on its own, under offset tables with an entry per ID. Kept as the
// oracle the one-sort, two-counting-pass build and its run indexes must
// answer like, ID for ID.
type denseCSR struct {
	outOff, inOff, predOff []uint32
	outArena, inArena      []Pair
	predArena              []Pair
	preds, verts           []ID
}

func buildCSRThreeSorts(order []Triple) *denseCSR {
	n := 0
	for _, t := range order {
		n = max(n, int(t.S)+1, int(t.P)+1, int(t.O)+1)
	}
	c := &denseCSR{
		outOff:  make([]uint32, n+1),
		inOff:   make([]uint32, n+1),
		predOff: make([]uint32, n+1),
	}
	scratch := append([]Triple(nil), order...)
	cmp3 := func(a1, b1, a2, b2, a3, b3 ID) int {
		switch {
		case a1 != b1:
			return int(a1) - int(b1)
		case a2 != b2:
			return int(a2) - int(b2)
		default:
			return int(a3) - int(b3)
		}
	}

	slices.SortFunc(scratch, func(a, b Triple) int { return cmp3(a.S, b.S, a.P, b.P, a.O, b.O) })
	c.outArena = make([]Pair, len(scratch))
	for i, t := range scratch {
		c.outArena[i] = Pair{t.P, t.O}
		c.outOff[t.S+1]++
	}
	prefixSum(c.outOff)

	slices.SortFunc(scratch, func(a, b Triple) int { return cmp3(a.O, b.O, a.P, b.P, a.S, b.S) })
	c.inArena = make([]Pair, len(scratch))
	for i, t := range scratch {
		c.inArena[i] = Pair{t.P, t.S}
		c.inOff[t.O+1]++
	}
	prefixSum(c.inOff)

	slices.SortFunc(scratch, func(a, b Triple) int { return cmp3(a.P, b.P, a.S, b.S, a.O, b.O) })
	c.predArena = make([]Pair, len(scratch))
	for i, t := range scratch {
		c.predArena[i] = Pair{t.S, t.O}
		c.predOff[t.P+1]++
	}
	prefixSum(c.predOff)

	for v := 0; v < n; v++ {
		if c.outOff[v+1] > c.outOff[v] || c.inOff[v+1] > c.inOff[v] {
			c.verts = append(c.verts, ID(v))
		}
		if c.predOff[v+1] > c.predOff[v] {
			c.preds = append(c.preds, ID(v))
		}
	}
	return c
}

// denseRun is a run lookup in a dense offset table, empty past its end.
func denseRun[T any](arena []T, off []uint32, v ID) []T {
	if int64(v)+1 >= int64(len(off)) {
		return nil
	}
	return arena[off[v]:off[v+1]]
}

func distinct(ts []Triple) []Triple {
	seen := make(map[Triple]bool)
	var out []Triple
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func TestBuildCSREqualsThreeSortBuild(t *testing.T) {
	check := func(name string, order []Triple) {
		t.Helper()
		spo := slices.Clone(order)
		slices.SortFunc(spo, CompareSPO)
		before := slices.Clone(spo)
		got, want := buildCSR(spo), buildCSRThreeSorts(order)
		if !slices.Equal(spo, before) {
			t.Errorf("%s: buildCSR wrote to its input", name)
		}
		bad := func(what string, v ID) {
			t.Helper()
			t.Errorf("%s (%d triples): %s of ID %d differs from the three-sort build", name, len(order), what, v)
		}
		if !slices.Equal(slices.Collect(keys(got.outRuns, got.inRuns)), want.verts) || !slices.Equal(got.preds, want.preds) {
			t.Errorf("%s (%d triples): the run indexes' vertices or preds differ from the three-sort build", name, len(order))
		}
		for v := ID(0); int(v) < len(want.outOff)+65; v++ {
			if !slices.Equal(got.out(v), denseRun(want.outArena, want.outOff, v)) {
				bad("the out run", v)
			}
			if !slices.Equal(got.in(v), denseRun(want.inArena, want.inOff, v)) {
				bad("the in run", v)
			}
			if !slices.Equal(got.pred(v), denseRun(want.predArena, want.predOff, v)) {
				bad("the predicate run", v)
			}
			for j, h := range denseRun(want.outArena, want.outOff, v) {
				if i, ok := got.ordinal(Triple{S: v, P: h.A, O: h.B}); !ok || i != int(want.outOff[v])+j {
					bad("a triple's ordinal", v)
				}
			}
			if _, ok := got.ordinal(Triple{S: v, P: 1 << 30, O: 0}); ok {
				bad("an absent triple's ordinal", v)
			}
		}
	}
	check("empty", nil)
	check("one triple", []Triple{{S: 3, P: 9, O: 3}})
	var single []Triple
	for o := 40; o > 0; o-- {
		single = append(single, Triple{S: 7, P: ID(50 + o%3), O: ID(o)})
	}
	check("single subject", single)
	f := func(seed int64) bool {
		check("random", distinct(randomTriples(seed, 200, 12, 5)))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotOrdinal: every base triple has an ordinal, the ordinals are
// the (S, P, O) ranks, and a triple that is absent, visible only through
// the delta, or tombstoned has none.
func TestSnapshotOrdinal(t *testing.T) {
	base := distinct(randomTriples(5, 150, 10, 4))
	g := NewFrozen(nil, slices.Clone(base))
	g.SetAutoCompact(-1)
	sorted := slices.Clone(base)
	slices.SortFunc(sorted, CompareSPO)

	clean := g.Snapshot()
	for want, tr := range sorted {
		if got, ok := clean.ordinal(tr); !ok || got != want {
			t.Fatalf("Ordinal(%v) = %d, %v; want %d", tr, got, ok, want)
		}
	}
	absent := []Triple{{S: 0, P: 99, O: 1}, {S: 99, P: 10, O: 1}, {S: 1, P: 10, O: 99}, {S: 9, P: 13, O: 9}}
	for _, tr := range absent {
		if g.Has(tr) {
			continue
		}
		if i, ok := clean.ordinal(tr); ok {
			t.Errorf("absent %v has ordinal %d", tr, i)
		}
	}

	deltaOnly := Triple{S: 2, P: 77, O: 3}
	g.Add(deltaOnly)
	tombstoned, reinserted := sorted[4], sorted[9]
	g.Delete(tombstoned)
	g.Delete(reinserted)
	g.Add(reinserted)
	live := g.Snapshot()
	if i, ok := live.ordinal(deltaOnly); ok {
		t.Errorf("delta-only triple has ordinal %d", i)
	}
	if i, ok := live.ordinal(tombstoned); ok {
		t.Errorf("tombstoned triple has ordinal %d", i)
	}
	if i, ok := live.ordinal(reinserted); !ok || i != 9 {
		t.Errorf("re-inserted base triple: Ordinal = %d, %v; want 9, true", i, ok)
	}
	if i, ok := clean.ordinal(tombstoned); !ok || i != 4 {
		t.Errorf("the snapshot pinned before the delete lost the triple: %d, %v", i, ok)
	}
	if _, ok := NewGraph(nil).Snapshot().ordinal(Triple{}); ok {
		t.Error("an empty graph's snapshot gave an ordinal")
	}
}

// TestEdgeSet: a set over each kind of snapshot holds what was added,
// once, lists it in (S, P, O) order, and unions.
func TestEdgeSet(t *testing.T) {
	base := distinct(randomTriples(11, 120, 9, 3))
	frozen := NewFrozen(nil, slices.Clone(base))
	frozen.SetAutoCompact(-1)
	extra := []Triple{{S: 0, P: 40, O: 1}, {S: 5, P: 41, O: 5}, {S: 200, P: 40, O: 0}}
	for _, tr := range extra {
		frozen.Add(tr)
	}
	for name, g := range map[string]*Graph{"added": graphOf(append(slices.Clone(base), extra...)), "frozen+delta": frozen} {
		sn := g.Snapshot()
		members := append(slices.Clone(base[:60]), extra...)
		a, b := sn.NewEdgeSet(), sn.NewEdgeSet()
		for round := 0; round < 100; round++ { // 6 300 adds: far past the overflow's compaction point
			for i, tr := range members {
				if i%2 == 0 {
					a.Add(tr)
				} else {
					b.Add(tr)
				}
			}
		}
		c := b.Clone()
		a.Union(b)
		b.Add(base[0])
		if c.Len() != len(members)/2 || !a.Of(c.s) {
			t.Errorf("%s: a clone of a set of %d holds %d, or moved with its original", name, len(members)/2, c.Len())
		}
		want := slices.Clone(members)
		slices.SortFunc(want, CompareSPO)
		if a.Len() != len(want) || !slices.Equal(a.Triples(), want) {
			t.Errorf("%s: set of %d triples lists %d (Len %d)", name, len(want), len(a.Triples()), a.Len())
		}
		if !a.Of(g.Snapshot()) {
			t.Errorf("%s: not Of an identical later snapshot", name)
		}
		g.Add(Triple{S: 1, P: 41, O: 1})
		if a.Of(g.Snapshot()) {
			t.Errorf("%s: set still of the graph's snapshot after a write", name)
		}
		if cap(a.extra) > 2048 {
			t.Errorf("%s: overflow list grew to %d for %d distinct triples", name, cap(a.extra), len(want))
		}
	}
	if n := NewFrozen(nil, nil).Snapshot().NewEdgeSet().Len(); n != 0 {
		t.Errorf("empty set over an empty graph has Len %d", n)
	}
}

// TestEdgeSetAddOut: over a compacted snapshot, AddOut of a subject, a
// predicate and a test on objects adds what Add of each visible triple
// with those three would — for a graph built frozen and for one whose
// deletes and inserts a compaction folded in — and over a snapshot with a
// delta it refuses.
func TestEdgeSetAddOut(t *testing.T) {
	const nv, np = 9, 3
	base := distinct(randomTriples(5, 90, nv, np))
	churned := NewFrozen(nil, slices.Clone(base))
	churned.SetAutoCompact(-1)
	for i, tr := range distinct(randomTriples(6, 30, nv, np)) {
		if i%3 == 0 {
			churned.Delete(tr)
		} else {
			churned.Add(tr)
		}
	}
	churned.Add(Triple{S: 70, P: nv, O: 3}) // a subject only the delta had
	churned.Compact()
	// Objects 0, 2, 3, 5, 6 and 8.
	objs := []uint64{0b101101101}
	for name, g := range map[string]*Graph{"frozen": NewFrozen(nil, slices.Clone(base)), "compacted": churned} {
		sn := g.Snapshot()
		got, want := sn.NewEdgeSet(), sn.NewEdgeSet()
		for s := ID(0); s <= 70; s++ {
			for p := ID(nv); p < nv+np+1; p++ {
				got.AddOut(s, p, func(o ID) bool { return o < 64 && objs[0]>>o&1 != 0 })
			}
		}
		for tr := range sn.All() {
			if tr.O < 64 && objs[0]>>tr.O&1 != 0 {
				want.Add(tr)
			}
		}
		if want.Len() == 0 || got.Len() != want.Len() || !slices.Equal(got.Triples(), want.Triples()) {
			t.Errorf("%s: AddOut marked %d triples, Add of each %d", name, got.Len(), want.Len())
		}
		sn.Close()
	}
	sn := graphOf(base).Snapshot()
	defer sn.Close()
	defer func() {
		if recover() == nil {
			t.Error("AddOut over a snapshot with a delta did not panic")
		}
	}()
	sn.NewEdgeSet().AddOut(base[0].S, base[0].P, func(ID) bool { return true })
}

// TestNewFrozenEqualsAddFreeze: NewFrozen is NewGraph + Add… + Freeze,
// observably — duplicates dropped first-wins included — and stays so
// under the writes a deployed graph takes afterwards.
func TestNewFrozenEqualsAddFreeze(t *testing.T) {
	f := func(seed int64) bool {
		ts := randomTriples(seed, 80, 7, 3) // with repeats
		want := graphOf(ts)
		want.Freeze()
		got := NewFrozen(want.Dict, slices.Clone(ts))
		same := func(stage string) bool {
			gs, ws := got.Snapshot(), want.Snapshot()
			defer gs.Close()
			defer ws.Close()
			ok := slices.Equal(got.Triples(), want.Triples()) &&
				got.NumTriples() == want.NumTriples() &&
				got.DeltaLen() == want.DeltaLen() &&
				slices.Equal(gs.Triples(), ws.Triples()) &&
				slices.Equal(gs.Vertices(), ws.Vertices()) && slices.Equal(gs.Predicates(), ws.Predicates())
			gst, wst := NewStats(got), NewStats(want)
			for _, p := range ws.Predicates() {
				ok = ok && gst.predicate(p) == wst.predicate(p) && slices.Equal(gs.ByPredicate(p), ws.ByPredicate(p))
			}
			for _, v := range ws.Vertices() {
				ok = ok && slices.Equal(gs.OutEdges(v), ws.OutEdges(v)) && slices.Equal(gs.InEdges(v), ws.InEdges(v))
			}
			for _, tr := range append(randomTriples(seed+1, 40, 7, 3), ts...) {
				ok = ok && got.Has(tr) == want.Has(tr) && gs.Has(tr) == ws.Has(tr)
			}
			if !ok {
				t.Logf("seed %d: NewFrozen differs from Add+Freeze %s", seed, stage)
			}
			return ok
		}
		if !same("at birth") {
			return false
		}
		for _, g := range []*Graph{got, want} {
			g.SetAutoCompact(-1)
			for i, tr := range randomTriples(seed+2, 30, 7, 3) {
				if i%3 == 0 {
					g.Delete(ts[i])
				}
				g.Add(tr)
			}
		}
		if !same("under a delta") {
			return false
		}
		got.Compact()
		want.Compact()
		return same("after Compact")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if g := NewFrozen(nil, nil); g.DeltaLen() != 0 || g.NumTriples() != 0 || g.Dict == nil {
		t.Error("NewFrozen of nothing is not an empty graph with a dictionary")
	}
}
