package rdf

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveSet is the reference the differential suites read a Graph
// against: a membership map beside the live triples in the order they
// were added, every read a linear scan and a sort. What it answers is what
// a graph holding the same triples must answer, in the same order: its
// runs come out sorted the way the CSR arenas are, and its triples, spo,
// the way the out arena is — a graph keeps no other order.
type naiveSet struct {
	member map[Triple]struct{}
	live   []Triple
}

func newNaive(ts ...Triple) *naiveSet {
	n := &naiveSet{member: map[Triple]struct{}{}}
	for _, t := range ts {
		n.Add(t)
	}
	return n
}

func (n *naiveSet) Has(t Triple) bool {
	_, ok := n.member[t]
	return ok
}

func (n *naiveSet) Add(t Triple) bool {
	if n.Has(t) {
		return false
	}
	n.member[t] = struct{}{}
	n.live = append(n.live, t)
	return true
}

func (n *naiveSet) Delete(t Triple) bool {
	if !n.Has(t) {
		return false
	}
	delete(n.member, t)
	n.live = slices.DeleteFunc(n.live, func(x Triple) bool { return x == t })
	return true
}

func (n *naiveSet) clone() *naiveSet { return newNaive(n.live...) }

// spo is the set in (S, P, O) order: strictly ascending, the members
// being distinct.
func (n *naiveSet) spo() []Triple {
	ts := slices.Clone(n.live)
	slices.SortFunc(ts, CompareSPO)
	return ts
}

// out and in are v's adjacency in (P, Other) order.
func (n *naiveSet) out(v ID) (hs []Pair) {
	for _, t := range n.live {
		if t.S == v {
			hs = append(hs, Pair{t.P, t.O})
		}
	}
	slices.SortFunc(hs, comparePairs)
	return hs
}

func (n *naiveSet) in(v ID) (hs []Pair) {
	for _, t := range n.live {
		if t.O == v {
			hs = append(hs, Pair{t.P, t.S})
		}
	}
	slices.SortFunc(hs, comparePairs)
	return hs
}

// labelled keeps the entries of a run whose label is p.
func labelled(hs []Pair, p ID) (run []Pair) {
	for _, h := range hs {
		if h.A == p {
			run = append(run, h)
		}
	}
	return run
}

// pred is the triples labelled p in (S, O) order.
func (n *naiveSet) pred(p ID) (ts []Triple) {
	for _, t := range n.live {
		if t.P == p {
			ts = append(ts, t)
		}
	}
	slices.SortFunc(ts, CompareSO)
	return ts
}

func (n *naiveSet) vertices() (vs []ID) {
	for _, t := range n.live {
		vs = append(vs, t.S, t.O)
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

func (n *naiveSet) predicates() (ps []ID) {
	for _, t := range n.live {
		ps = append(ps, t.P)
	}
	slices.Sort(ps)
	return slices.Compact(ps)
}

func (n *naiveSet) stats(p ID) PredStats {
	ts := n.pred(p)
	subs, objs := map[ID]struct{}{}, map[ID]struct{}{}
	for _, t := range ts {
		subs[t.S], objs[t.O] = struct{}{}, struct{}{}
	}
	return PredStats{Count: len(ts), DistinctSubjects: len(subs), DistinctObjects: len(objs)}
}

// readBy reports, logging the first difference, whether every accessor
// of sn answers what the set does — for the IDs the set uses and for one
// past them, which has no run anywhere.
func (n *naiveSet) readBy(t *testing.T, sn *Snapshot) bool {
	t.Helper()
	fail := func(format string, args ...any) bool {
		t.Helper()
		t.Logf(format, args...)
		return false
	}
	if got, want := sn.Triples(), n.spo(); sn.NumTriples() != len(want) || !equalRun(got, want) {
		return fail("Triples() = %v (NumTriples %d), want %v", got, sn.NumTriples(), want)
	}
	verts, preds := n.vertices(), n.predicates()
	if !equalRun(sn.Vertices(), verts) {
		return fail("Vertices() = %v, want %v", sn.Vertices(), verts)
	}
	if !equalRun(sn.Predicates(), preds) {
		return fail("Predicates() = %v, want %v", sn.Predicates(), preds)
	}
	absent := ID(0)
	for _, id := range append(verts, preds...) {
		absent = max(absent, id+1)
	}
	for _, v := range append(verts, absent) {
		out, in := n.out(v), n.in(v)
		if got := sn.OutEdges(v); !equalRun(got, out) {
			return fail("OutEdges(%d) = %v, want %v", v, got, out)
		}
		if got := sn.InEdges(v); !equalRun(got, in) {
			return fail("InEdges(%d) = %v, want %v", v, got, in)
		}
		if sn.OutDegree(v) != len(out) || sn.InDegree(v) != len(in) {
			return fail("degrees of %d = %d out, %d in; want %d out, %d in", v, sn.OutDegree(v), sn.InDegree(v), len(out), len(in))
		}
		for _, p := range append(preds, absent) {
			outP, inP := labelled(out, p), labelled(in, p)
			if got := sn.OutRun(v, p); !equalRun(got, outP) || sn.OutDegreeP(v, p) != len(outP) {
				return fail("OutRun(%d, %d) = %v (OutDegreeP %d), want %v", v, p, got, sn.OutDegreeP(v, p), outP)
			}
			if got := sn.InRun(v, p); !equalRun(got, inP) || sn.InDegreeP(v, p) != len(inP) {
				return fail("InRun(%d, %d) = %v (InDegreeP %d), want %v", v, p, got, sn.InDegreeP(v, p), inP)
			}
		}
	}
	for _, p := range append(preds, absent) {
		want := n.pred(p)
		if got := sn.ByPredicate(p); !equalRun(got, want) || sn.PredicateCount(p) != len(want) {
			return fail("ByPredicate(%d) = %v (PredicateCount %d), want %v", p, got, sn.PredicateCount(p), want)
		}
	}
	for _, tr := range n.live {
		for _, x := range []Triple{tr, {S: tr.O, P: tr.P, O: tr.S}} {
			if sn.has(x) != n.Has(x) {
				return fail("Has(%v) = %v", x, !n.Has(x))
			}
		}
	}
	if sn.has(Triple{S: absent, P: absent, O: absent}) {
		return fail("Has of a triple over absent IDs")
	}
	return true
}

// TestTriplesAreTheSetInSPOOrder: a graph is a set — whatever order its
// triples arrived in and whatever happened to them since, Triples lists
// them strictly ascending by (S, P, O), and NumTriples and Vertices count
// the same set. Snapshots pinned on the load, inside a window of deletes,
// after some of the deleted came back, after a Compact and after a bulk
// addAll each go on reading what the naive set held at their pin while
// the graph moves on under them; and two graphs loaded from one list in
// two orders list the same.
func TestTriplesAreTheSetInSPOOrder(t *testing.T) {
	const nv, np = 14, 5
	base := distinct(randomTriples(41, 300, nv, np))
	g := NewFrozen(nil, slices.Clone(base))
	g.SetAutoCompact(-1)
	ref := newNaive(base...)
	type pin struct {
		at   string
		sn   *Snapshot
		want *naiveSet
	}
	var pins []pin
	pinNow := func(at string) { pins = append(pins, pin{at, g.Snapshot(), ref.clone()}) }
	apply := func(del bool, ts ...Triple) {
		t.Helper()
		for _, tr := range ts {
			if del && g.Delete(tr) != ref.Delete(tr) || !del && g.Add(tr) != ref.Add(tr) {
				t.Fatalf("the graph and the naive set disagree on %v", tr)
			}
		}
	}

	pinNow("the load")
	gone := make([]Triple, 0, 40)
	for i := 0; i < 40; i++ {
		gone = append(gone, base[i*5])
	}
	apply(true, gone...)
	pinNow("inside a window of deletes")
	apply(false, gone[:20]...)
	apply(false, randomTriples(42, 30, 2*nv, np)...) // subjects the CSR has no run for among them
	pinNow("after delete-then-reinsert")
	if g.snapshotAt().dels() != 40 {
		t.Fatalf("setup: %d tombstones pending, want 40", g.snapshotAt().dels())
	}
	g.Compact()
	pinNow("after Compact")
	g.SetAutoCompact(0)
	batch := randomTriples(43, 200, 3*nv, np)
	if got, want := g.addAll(slices.Clone(batch)), len(newNaive(batch...).live); g.DeltaLen() != 0 || got > want {
		t.Fatalf("setup: addAll of %d added %d of %d distinct and left a delta of %d; want the bulk path", len(batch), got, want, g.DeltaLen())
	}
	for _, tr := range batch {
		ref.Add(tr)
	}
	pinNow("after a bulk addAll")
	apply(true, ref.spo()[:50]...) // the last pin has a window open under it too
	pinNow("at the end")

	for _, p := range pins {
		if !p.want.readBy(t, p.sn) {
			t.Errorf("the snapshot pinned %s does not read as the set held then", p.at)
		}
		p.sn.Close()
	}

	shuffled := slices.Clone(ref.live)
	rand.New(rand.NewSource(44)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a, b := NewFrozen(nil, slices.Clone(ref.live)), NewFrozen(nil, shuffled)
	if !slices.Equal(a.Triples(), b.Triples()) || !slices.Equal(a.Triples(), ref.spo()) {
		t.Error("two permutations of one triple list built graphs that list differently")
	}
}
