package rdf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDeleteNeverInserted: tombstoning a triple the graph never held is
// a no-op, with a delta and without — it reports absent, mutates nothing,
// and leaves no phantom behind for snapshots or a later re-insert to trip
// over.
func TestDeleteNeverInserted(t *testing.T) {
	g := graphOf(randomTriples(11, 40, 8, 4))
	phantom := Triple{S: 900, P: 901, O: 902}
	if g.Delete(phantom) {
		t.Fatal("delta: Delete of a never-inserted triple reported present")
	}
	n := g.NumTriples()
	g.Freeze()
	if g.Delete(phantom) {
		t.Fatal("no delta: Delete of a never-inserted triple reported present")
	}
	if g.DeltaLen() != 0 || g.snapshotAt().dels() != 0 {
		t.Fatalf("no-op delete left delta state behind: len=%d tombs=%d", g.DeltaLen(), g.snapshotAt().dels())
	}
	sn := g.Snapshot()
	defer sn.Close()
	if sn.NumTriples() != n || sn.has(phantom) {
		t.Fatalf("no-op delete changed visibility: NumTriples=%d (want %d), Has=%v", sn.NumTriples(), n, sn.has(phantom))
	}
	// The phantom's terms must not have leaked into the vertex set.
	for _, v := range sn.Vertices() {
		if v == 900 || v == 902 {
			t.Fatalf("no-op delete interned phantom vertex %d", v)
		}
	}
}

// TestDeleteMVCCVisibility: a snapshot pinned before a delete keeps
// seeing the triple (the tombstone's Seq is at or past its bound), a
// snapshot taken after does not, and a re-insert after the delete is
// visible only to snapshots taken after it — the insert-tombstone-insert
// chain resolves by latest visible op at every bound.
func TestDeleteMVCCVisibility(t *testing.T) {
	g := graphOf(randomTriples(17, 60, 8, 4))
	g.Freeze()
	g.SetAutoCompact(-1)
	victim := g.Triples()[7]

	before := g.Snapshot()
	defer before.Close()
	if !g.Delete(victim) {
		t.Fatal("setup: victim not present")
	}
	afterDel := g.Snapshot()
	defer afterDel.Close()
	if !g.Add(victim) {
		t.Fatal("re-insert after delete reported duplicate")
	}
	afterRe := g.Snapshot()
	defer afterRe.Close()

	if !before.has(victim) {
		t.Fatal("pinned snapshot lost the triple to a later delete")
	}
	if afterDel.has(victim) {
		t.Fatal("snapshot taken after the delete still sees the triple")
	}
	if !afterRe.has(victim) {
		t.Fatal("snapshot taken after the re-insert misses it")
	}
	if got, want := afterDel.NumTriples(), before.NumTriples()-1; got != want {
		t.Fatalf("NumTriples after delete = %d, want %d", got, want)
	}
	if got, want := afterRe.NumTriples(), before.NumTriples(); got != want {
		t.Fatalf("NumTriples after re-insert = %d, want %d", got, want)
	}
	// Degrees must shrink and recover with the visibility, not globally.
	if before.OutDegree(victim.S) != afterRe.OutDegree(victim.S) {
		t.Fatal("re-insert did not restore the out-degree")
	}
	if afterDel.OutDegree(victim.S) != before.OutDegree(victim.S)-1 {
		t.Fatal("delete did not shrink the out-degree for later snapshots")
	}
}

// TestCompactFoldsTombstones: Compact rebuilds the CSR without the
// deleted triples and resets both delta gauges; the compacted graph is
// byte-identical to one built fresh from the surviving triples.
func TestCompactFoldsTombstones(t *testing.T) {
	ts := randomTriples(23, 80, 10, 5)
	g := graphOf(ts)
	g.Freeze()
	g.SetAutoCompact(-1)
	live := g.Triples()
	for i := 0; i < 10; i++ {
		if !g.Delete(live[i*3]) {
			t.Fatal("setup: delete of a live triple failed")
		}
	}
	g.Add(Triple{S: 700, P: 701, O: 702})
	if g.snapshotAt().dels() != 10 {
		t.Fatalf("tombstones = %d, want 10", g.snapshotAt().dels())
	}
	g.Compact()
	if g.DeltaLen() != 0 || g.snapshotAt().dels() != 0 {
		t.Fatalf("compaction left delta state: len=%d tombs=%d", g.DeltaLen(), g.snapshotAt().dels())
	}
	want := rebuiltFrozen(g.Triples())
	sn, wn := g.Snapshot(), want.Snapshot()
	defer sn.Close()
	defer wn.Close()
	if sn.NumTriples() != wn.NumTriples() {
		t.Fatalf("NumTriples = %d, want %d", sn.NumTriples(), wn.NumTriples())
	}
	for _, v := range wn.Vertices() {
		if got, wantD := sn.OutDegree(v), wn.OutDegree(v); got != wantD {
			t.Fatalf("OutDegree(%d) = %d, want %d after compaction", v, got, wantD)
		}
	}
}

// TestDeleteHeavyDifferential is a delete-heavy variant of the
// differential property: half the ops are deletes, so visible windows
// routinely carry more tombstones than inserts and whole vertices and
// predicates disappear and reappear.
func TestDeleteHeavyDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		overlay := NewGraph(nil)
		oracle := newNaive()
		if seed%2 == 0 {
			overlay.SetAutoCompact(-1)
		}
		const nv, np = 6, 3
		randomTriple := func() Triple {
			return Triple{S: ID(r.Intn(nv)), P: ID(nv + r.Intn(np)), O: ID(r.Intn(nv))}
		}
		for step := 0; step < 50; step++ {
			switch op := r.Intn(10); {
			case op < 4: // Add
				tr := randomTriple()
				if overlay.Add(tr) != oracle.Add(tr) {
					return false
				}
			case op < 9: // Delete, biased toward live triples
				var tr Triple
				if live := overlay.Triples(); len(live) > 0 && r.Intn(3) != 0 {
					tr = live[r.Intn(len(live))]
				} else {
					tr = randomTriple()
				}
				if overlay.Delete(tr) != oracle.Delete(tr) {
					return false
				}
			default:
				overlay.Freeze()
			}
			if !checkEquivalent(t, overlay, oracle) {
				t.Logf("seed %d diverged at step %d (delta=%d tombs=%d)",
					seed, step, overlay.DeltaLen(), overlay.snapshotAt().dels())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTombstoneReadZeroAllocs: the three-run accessors stay
// allocation-free when the visible window carries tombstones — deletes
// must not push the matcher's hot path onto the heap.
func TestTombstoneReadZeroAllocs(t *testing.T) {
	ts := randomTriples(29, 200, 12, 6)
	g := graphOf(ts)
	g.Freeze()
	g.SetAutoCompact(-1)
	live := g.Triples()
	for i := 0; i < 30; i++ {
		g.Delete(live[i*5])
	}
	for i := 0; i < 20; i++ {
		g.Add(Triple{S: ID(i % 12), P: ID(12 + i%6), O: ID((i + 7) % 12)})
	}
	if g.snapshotAt().dels() == 0 {
		t.Fatal("setup produced no tombstones")
	}
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
		_ = sn.PredicateCount(p)
		_ = sn.OutDegree(v) + sn.InDegree(v)
	})
	if allocs != 0 {
		t.Fatalf("three-run accessors allocate %.1f per run with tombstones, want 0", allocs)
	}
	// The count the matcher ranks a fully-unbound edge by is arithmetic on
	// the op log, on a cut nobody has listed the triples of before.
	want := len(sn.Triples())
	allocs = testing.AllocsPerRun(200, func() {
		fresh := Snapshot{g: g, gen: sn.gen, n: sn.n}
		if n := fresh.NumTriples(); n != want {
			t.Fatalf("NumTriples = %d with tombstones pending, Triples lists %d", n, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("NumTriples allocates %.1f per run with tombstones, want 0", allocs)
	}
}
