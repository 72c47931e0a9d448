package rdf

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// randomTriples builds a reproducible random triple set over a small ID
// space: subjects/objects in [0,nv), predicates in [nv, nv+np).
func randomTriples(seed int64, n, nv, np int) []Triple {
	r := rand.New(rand.NewSource(seed))
	ts := make([]Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, Triple{
			S: ID(r.Intn(nv)),
			P: ID(nv + r.Intn(np)),
			O: ID(r.Intn(nv)),
		})
	}
	return ts
}

func graphOf(ts []Triple) *Graph {
	g := NewGraph(nil)
	for _, t := range ts {
		g.Add(t)
	}
	return g
}

// TestFreezeEquivalenceProperty: every snapshot accessor answers what
// the naive set does — byte for byte, the set's runs being sorted as a
// CSR's are — over a graph as a run of Adds left it (a delta on an empty
// generation), over the same graph frozen, and over NewFrozen's.
func TestFreezeEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		ts := randomTriples(seed, 60, 8, 4)
		want := newNaive(ts...)
		added, frozen := graphOf(ts), graphOf(ts)
		frozen.Freeze()
		if added.DeltaLen() != len(want.live) || frozen.DeltaLen() != 0 {
			return false
		}
		for _, g := range []*Graph{added, frozen, NewFrozen(nil, slices.Clone(ts))} {
			sn := g.Snapshot()
			ok := want.readBy(t, sn)
			sn.Close()
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFrozenRunsSortedAndExact: adjacency runs are sorted by (P, Other),
// and OutRun returns exactly the predicate-filtered adjacency as a
// contiguous subslice.
func TestFrozenRunsSortedAndExact(t *testing.T) {
	ts := randomTriples(7, 120, 10, 5)
	g := graphOf(ts)
	g.Freeze()
	sn := g.Snapshot()
	defer sn.Close()
	for _, v := range sn.Vertices() {
		hs := sn.OutEdges(v)
		if !slices.IsSortedFunc(hs, comparePairs) {
			t.Fatalf("out adjacency of %d not sorted: %v", v, hs)
		}
		for _, p := range sn.Predicates() {
			run := sn.OutRun(v, p)
			var want []Pair
			for _, h := range hs {
				if h.A == p {
					want = append(want, h)
				}
			}
			if !slices.Equal(run, want) {
				t.Fatalf("OutRun(%d,%d) = %v, want %v", v, p, run, want)
			}
		}
		in := sn.InEdges(v)
		if !slices.IsSortedFunc(in, comparePairs) {
			t.Fatalf("in adjacency of %d not sorted: %v", v, in)
		}
	}
	// The per-predicate arena partitions the triple set.
	total := 0
	for _, p := range sn.Predicates() {
		total += len(sn.ByPredicate(p))
	}
	if total != sn.NumTriples() {
		t.Fatalf("predicate arena covers %d of %d triples", total, sn.NumTriples())
	}
}

// TestDeltaOnAdd: an added triple lands in the delta overlay, snapshots
// taken afterwards see it immediately, and Freeze (or Compact) folds it
// into the CSR.
func TestDeltaOnAdd(t *testing.T) {
	ts := randomTriples(11, 40, 6, 3)
	g := graphOf(ts)
	g.Freeze()
	pre := g.Snapshot()
	nv := len(pre.Vertices())
	pre.Close()
	// A duplicate Add must not grow the delta.
	if g.Add(ts[0]) {
		t.Fatal("duplicate add reported new")
	}
	if g.DeltaLen() != 0 {
		t.Fatalf("duplicate add grew the delta to %d", g.DeltaLen())
	}
	extra := Triple{S: 100, P: 101, O: 102}
	if !g.Add(extra) {
		t.Fatal("add reported duplicate")
	}
	if g.DeltaLen() != 1 {
		t.Fatalf("DeltaLen = %d, want 1", g.DeltaLen())
	}
	sn := g.Snapshot()
	if !sn.has(extra) || sn.NumTriples() != len(sn.Triples()) {
		t.Fatal("triple lost in the delta")
	}
	if len(sn.Vertices()) != nv+2 {
		t.Fatalf("len(Vertices()) = %d, want %d (delta vertices missing?)", len(sn.Vertices()), nv+2)
	}
	// Overlaid reads serve the delta triple before any compaction.
	if got := sn.OutEdges(100); len(got) != 1 || got[0] != (Pair{101, 102}) {
		t.Fatalf("OutEdges(100) = %v with delta", got)
	}
	if sn.OutDegreeP(100, 101) != 1 || sn.InDegreeP(102, 101) != 1 || sn.PredicateCount(101) != 1 {
		t.Fatal("degree/count accessors missed the delta triple")
	}
	sn.Close()
	g.Freeze() // on a delta-carrying graph this compacts
	if g.DeltaLen() != 0 || g.Compactions() == 0 {
		t.Fatalf("Freeze left delta=%d compactions=%d", g.DeltaLen(), g.Compactions())
	}
	post := g.Snapshot()
	defer post.Close()
	if got := post.OutEdges(100); len(got) != 1 || got[0] != (Pair{101, 102}) {
		t.Fatalf("OutEdges(100) = %v after compaction", got)
	}
}

// TestFrozenReadZeroAllocs: the hot-path accessors on a delta-free
// snapshot do not allocate.
func TestFrozenReadZeroAllocs(t *testing.T) {
	ts := randomTriples(13, 200, 12, 6)
	g := graphOf(ts)
	g.Freeze()
	sn := g.Snapshot()
	defer sn.Close()
	v := sn.Vertices()[0]
	p := sn.Predicates()[0]
	allocs := testing.AllocsPerRun(200, func() {
		_ = walk(sn.Out(v))
		_ = walk(sn.In(v))
		_ = walk(narrowed(sn.Out(v), p))
		_ = walk(narrowed(sn.In(v), p))
		_ = walk(sn.Pred(p))
		_ = sn.OutDegreeP(v, p)
		_ = sn.OutDegree(v) + sn.InDegree(v)
	})
	if allocs != 0 {
		t.Fatalf("frozen accessors allocate %.1f per run, want 0", allocs)
	}
}

// TestSnapshotAllStreams: All yields what Triples lists, with and without a
// delta, stops when the consumer does, and walks a delta-free snapshot
// without allocating whatever its size — a checkpoint streams from it.
func TestSnapshotAllStreams(t *testing.T) {
	g := graphOf(randomTriples(17, 400, 30, 6))
	g.Freeze()
	g.SetAutoCompact(-1)
	frozen := g.Snapshot()
	defer frozen.Close()
	var n int
	allocs := testing.AllocsPerRun(50, func() {
		n = 0
		for range frozen.All() {
			n++
		}
	})
	if allocs != 0 || n != frozen.NumTriples() {
		t.Fatalf("All walked %d of %d triples with %.1f allocations per walk, want all and 0", n, frozen.NumTriples(), allocs)
	}
	live := frozen.Triples()
	g.Delete(live[3])
	g.Add(Triple{S: 2, P: 31, O: 5})
	sn := g.Snapshot()
	defer sn.Close()
	if got := slices.Collect(sn.All()); !slices.Equal(got, sn.Triples()) || len(got) != len(live) || !slices.IsSortedFunc(got, CompareSPO) {
		t.Fatalf("All over a delta yields %d triples, Triples lists %d, want %d in (S, P, O) order", len(got), len(sn.Triples()), len(live))
	}
	n = 0
	for range sn.All() {
		if n++; n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("All went on after the consumer stopped: %d", n)
	}
}

// TestFrozenWriterZeroAllocs: membership asked of the generation costs the
// writer no allocation — Has, an Add of a triple already there and a
// Delete of one that is not, with inserts and tombstones in the delta.
func TestFrozenWriterZeroAllocs(t *testing.T) {
	ts := randomTriples(13, 200, 12, 6)
	for i := range ts { // past the integers an interface holds for free
		ts[i] = Triple{S: ts[i].S + 1000, P: ts[i].P + 1000, O: ts[i].O + 1000}
	}
	g := NewFrozen(nil, ts)
	g.SetAutoCompact(-1)
	live := slices.Clone(g.Triples())
	inBase, inDelta, reinserted := live[0], Triple{S: 1003, P: 1013, O: 2000}, live[2]
	tombstoned, absent := live[1], Triple{S: 1003, P: 1013, O: 2001}
	g.Add(inDelta)
	g.Delete(tombstoned)
	g.Delete(reinserted)
	g.Add(reinserted)
	if g.DeltaLen() != 4 || g.snapshotAt().dels() != 2 {
		t.Fatalf("setup: delta %d, tombstones %d", g.DeltaLen(), g.snapshotAt().dels())
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, tr := range []Triple{inBase, inDelta, reinserted} {
			if !g.Has(tr) || g.Add(tr) {
				t.Fatalf("%v is present", tr)
			}
		}
		for _, tr := range []Triple{tombstoned, absent} {
			if g.Has(tr) || g.Delete(tr) {
				t.Fatalf("%v is absent", tr)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Has, a duplicate Add and an absent Delete allocate %.1f per run, want 0", allocs)
	}
	if g.DeltaLen() != 4 {
		t.Fatalf("the no-op writes grew the delta to %d", g.DeltaLen())
	}
}

// TestFrozenBytesPerTriple: what a frozen graph retains grows with its
// triples, not with the IDs they reach. 1 000 triples spread over 1<<20
// IDs kept 12 MB of dense offset tables and a membership map.
func TestFrozenBytesPerTriple(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ts := make([]Triple, 1000)
	for i := range ts {
		ts[i] = Triple{S: ID(r.Intn(1 << 20)), P: ID(r.Intn(1 << 20)), O: ID(r.Intn(1 << 20))}
	}
	ts[0].O = 1<<20 - 1
	d := NewDict()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := NewFrozen(d, ts)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("a frozen graph of %d triples over 1<<20 IDs retains %d KB", g.NumTriples(), retained>>10)
	if retained >= 1<<20 {
		t.Errorf("retains %d B, want < 1 MB", retained)
	}
	runtime.KeepAlive(g)
}

func TestFreezeEmptyGraph(t *testing.T) {
	g := NewGraph(nil)
	g.Freeze()
	sn := g.Snapshot()
	if len(sn.Vertices()) != 0 || sn.NumTriples() != 0 {
		t.Fatal("empty frozen graph not empty")
	}
	if got := sn.OutEdges(0); len(got) != 0 {
		t.Fatalf("OutEdges on empty graph = %v", got)
	}
	sn.Close()
	if g.Add(Triple{S: 1, P: 2, O: 3}); g.NumTriples() != 1 {
		t.Fatal("add after empty freeze lost the triple")
	}
}
