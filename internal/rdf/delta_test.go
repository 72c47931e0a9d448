package rdf

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// rebuiltFrozen builds a fresh graph from the same triple sequence: the
// ground truth an overlaid graph must be byte-identical to.
func rebuiltFrozen(ts []Triple) *Graph { return NewFrozen(nil, slices.Clone(ts)) }

// checkEquivalent asserts the overlaid graph answers what the naive
// oracle does: the writer-side list, then the full snapshot read API,
// byte for byte — and so does a graph rebuilt from the overlay's triples,
// which makes the overlay's merged runs the rebuild's.
func checkEquivalent(t *testing.T, overlay *Graph, oracle *naiveSet) bool {
	t.Helper()
	// Writer-side enumeration must agree exactly, deletes included: the
	// live triples in (S, P, O) order, wherever in the window a triple was
	// deleted or put back.
	if !equalRun(overlay.Triples(), oracle.spo()) || overlay.NumTriples() != len(oracle.live) {
		t.Logf("Triples(): overlay %v oracle %v", overlay.Triples(), oracle.spo())
		return false
	}
	ov, rb := overlay.Snapshot(), rebuiltFrozen(overlay.Triples()).Snapshot()
	defer ov.Close()
	defer rb.Close()
	return oracle.readBy(t, ov) && oracle.readBy(t, rb)
}

// TestDeltaOverlayDifferentialProperty is the storage half of the
// differential mutation harness: a random interleaving of
// Add/Delete/Freeze/Compact ops runs against an overlaid graph and the
// naive oracle, and after every mutation the whole read API must agree
// with the oracle, as a freshly rebuilt graph's does, byte for byte —
// before and after every compaction. The small
// vocabulary makes delete-then-reinsert and duplicate-add collisions
// common, and random deletes regularly target never-inserted triples
// (both sides must report them as no-ops, not phantoms).
func TestDeltaOverlayDifferentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		overlay := NewGraph(nil)
		oracle := newNaive()
		// A third of the runs auto-compact aggressively (every delta
		// triple crosses the threshold), a third never, a third default.
		switch seed % 3 {
		case 0:
			overlay.SetAutoCompact(-1)
		case 1:
			overlay.SetAutoCompact(0.0001)
		}
		const nv, np = 8, 4
		randomTriple := func() Triple {
			return Triple{
				S: ID(r.Intn(nv)),
				P: ID(nv + r.Intn(np)),
				O: ID(r.Intn(nv)),
			}
		}
		for step := 0; step < 60; step++ {
			switch op := r.Intn(10); {
			case op < 5: // Add
				tr := randomTriple()
				if overlay.Add(tr) != oracle.Add(tr) {
					t.Logf("Add(%v) novelty diverged", tr)
					return false
				}
			case op < 8: // Delete (live triple, or a random possibly-absent one)
				var tr Triple
				if live := overlay.Triples(); len(live) > 0 && r.Intn(2) == 0 {
					tr = live[r.Intn(len(live))]
				} else {
					tr = randomTriple()
				}
				if overlay.Delete(tr) != oracle.Delete(tr) {
					t.Logf("Delete(%v) presence diverged", tr)
					return false
				}
			case op < 9: // Freeze
				overlay.Freeze()
			default: // Compact
				overlay.Compact()
			}
			if !checkEquivalent(t, overlay, oracle) {
				t.Logf("seed %d diverged at step %d (delta=%d tombs=%d compactions=%d)",
					seed, step, overlay.DeltaLen(), overlay.DeltaTombstones(), overlay.Compactions())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAutoCompaction: the delta folds into the CSR once it crosses the
// configured fraction of the base, and never does when disabled.
func TestAutoCompaction(t *testing.T) {
	ts := randomTriples(3, 400, 24, 6)
	g := rebuiltFrozen(ts)
	base := g.NumTriples()
	g.SetAutoCompact(0.1)
	// minCompactDelta floors the threshold; push well past both bounds.
	want := int(0.1 * float64(base))
	if want < minCompactDelta {
		want = minCompactDelta
	}
	added := 0
	for i := 0; added < 2*want; i++ {
		if g.Add(Triple{S: ID(1000 + i), P: ID(2000), O: ID(3000 + i)}) {
			added++
		}
	}
	if g.Compactions() == 0 {
		t.Fatalf("no auto-compaction after %d delta adds (threshold %d)", added, want)
	}
	if g.DeltaLen() >= want {
		t.Fatalf("delta %d still at/above threshold %d after compaction", g.DeltaLen(), want)
	}

	g2 := rebuiltFrozen(ts)
	g2.SetAutoCompact(-1)
	for i := 0; i < 3*minCompactDelta; i++ {
		g2.Add(Triple{S: ID(1000 + i), P: ID(2000), O: ID(3000 + i)})
	}
	if g2.Compactions() != 0 {
		t.Fatalf("disabled auto-compaction still compacted %d times", g2.Compactions())
	}
	if g2.DeltaLen() != 3*minCompactDelta {
		t.Fatalf("delta = %d, want %d", g2.DeltaLen(), 3*minCompactDelta)
	}
}

// TestDeltaVertexVisibility: a snapshot taken after a delta Add sees the
// new vertices and predicate immediately, while a snapshot taken before
// does not — the MVCC replacement of the old stale-cache regression
// test.
func TestDeltaVertexVisibility(t *testing.T) {
	g := graphOf(randomTriples(5, 50, 6, 3))
	g.Freeze()
	before := g.Snapshot()
	defer before.Close()
	nv := before.NumVertices()
	g.Add(Triple{S: 500, P: 501, O: 502})
	after := g.Snapshot()
	defer after.Close()
	if after.NumVertices() != nv+2 {
		t.Fatalf("NumVertices = %d after delta add, want %d", after.NumVertices(), nv+2)
	}
	if before.NumVertices() != nv {
		t.Fatalf("pinned snapshot grew: NumVertices = %d, want %d", before.NumVertices(), nv)
	}
	vs := after.Vertices()
	if !slices.Contains(vs, ID(500)) || !slices.Contains(vs, ID(502)) {
		t.Fatalf("Vertices() = %v missing delta vertices", vs)
	}
	if !slices.IsSorted(vs) {
		t.Fatalf("Vertices() not sorted with delta: %v", vs)
	}
	// New predicate must surface too — but not in the older snapshot.
	if !slices.Contains(after.Predicates(), ID(501)) {
		t.Fatalf("Predicates() = %v missing delta predicate", after.Predicates())
	}
	if slices.Contains(before.Predicates(), ID(501)) {
		t.Fatal("pinned snapshot sees a predicate added after it")
	}
}

// TestDeltaReadZeroAllocs: the two-run accessors on a delta-carrying
// snapshot stay allocation-free — the matcher's hot path does not
// regress when live updates are pending.
func TestDeltaReadZeroAllocs(t *testing.T) {
	ts := randomTriples(13, 200, 12, 6)
	g := graphOf(ts)
	g.Freeze()
	g.SetAutoCompact(-1)
	for i := 0; i < 40; i++ {
		g.Add(Triple{S: ID(i % 12), P: ID(12 + i%6), O: ID((i + 5) % 12)})
	}
	if g.DeltaLen() == 0 {
		t.Fatal("setup produced no delta")
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
		_ = sn.Degree(v)
	})
	if allocs != 0 {
		t.Fatalf("two-run accessors allocate %.1f per run with a delta, want 0", allocs)
	}
}
