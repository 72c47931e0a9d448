package rdf

import "testing"

func statsGraph() *Graph {
	g := NewGraph(nil)
	add := func(s, p, o string) { g.AddTerms(NewIRI(s), NewIRI(p), NewIRI(o)) }
	// p: 6 triples, 3 distinct subjects, 2 distinct objects.
	add("s1", "p", "o1")
	add("s1", "p", "o2")
	add("s2", "p", "o1")
	add("s2", "p", "o2")
	add("s3", "p", "o1")
	add("s3", "p", "o2")
	// q: 2 triples, 2 subjects, 1 object.
	add("a", "q", "x")
	add("b", "q", "x")
	return g
}

func TestPredicateStats(t *testing.T) {
	g := statsGraph()
	st := NewStats(g)
	p, _ := g.Dict.Lookup(NewIRI("p"))
	ps := st.Predicate(p)
	if ps.Count != 6 || ps.DistinctSubjects != 3 || ps.DistinctObjects != 2 {
		t.Errorf("stats = %+v", ps)
	}
	q, _ := g.Dict.Lookup(NewIRI("q"))
	qs := st.Predicate(q)
	if qs.Count != 2 || qs.DistinctSubjects != 2 || qs.DistinctObjects != 1 {
		t.Errorf("stats = %+v", qs)
	}
	// Unknown predicate: zero value.
	if st.Predicate(9999).Count != 0 {
		t.Error("unknown predicate has non-zero count")
	}
}

// TestStatsRefreshOnMutation is the stale-stats regression test: the
// per-predicate cache must recompute after any Add — into a loading
// graph's delta, into a frozen graph's, and across a compaction — instead
// of serving the counts from the first computation forever.
func TestStatsRefreshOnMutation(t *testing.T) {
	g := statsGraph()
	st := NewStats(g)
	p, _ := g.Dict.Lookup(NewIRI("p"))
	if got := st.Predicate(p).Count; got != 6 {
		t.Fatalf("initial count = %d, want 6", got)
	}
	// An Add while loading.
	g.AddTerms(NewIRI("s4"), NewIRI("p"), NewIRI("o3"))
	if ps := st.Predicate(p); ps.Count != 7 || ps.DistinctSubjects != 4 || ps.DistinctObjects != 3 {
		t.Fatalf("stats after an add while loading = %+v (stale cache)", ps)
	}
	// Delta-overlay Add on the frozen graph.
	g.Freeze()
	if got := st.Predicate(p).Count; got != 7 {
		t.Fatalf("count after freeze = %d, want 7", got)
	}
	g.AddTerms(NewIRI("s5"), NewIRI("p"), NewIRI("o1"))
	if g.DeltaLen() != 1 {
		t.Fatalf("setup: delta=%d", g.DeltaLen())
	}
	if ps := st.Predicate(p); ps.Count != 8 || ps.DistinctSubjects != 5 {
		t.Fatalf("stats after delta add = %+v (stale cache)", ps)
	}
	// Unchanged across compaction (same logical content).
	g.Compact()
	if ps := st.Predicate(p); ps.Count != 8 || ps.DistinctSubjects != 5 || ps.DistinctObjects != 3 {
		t.Fatalf("stats after compaction = %+v", ps)
	}
	// A brand-new predicate arriving via the delta must appear.
	g.AddTerms(NewIRI("a"), NewIRI("r"), NewIRI("b"))
	r, _ := g.Dict.Lookup(NewIRI("r"))
	if got := st.Predicate(r).Count; got != 1 {
		t.Fatalf("new delta predicate count = %d, want 1", got)
	}
}

// TestStatsFoldDeletes: tombstone ops fold into the persistent
// aggregates incrementally — counts drop, and a distinct
// subject/object retires exactly when its last carrier under the
// predicate dies, never a delete earlier.
func TestStatsFoldDeletes(t *testing.T) {
	g := statsGraph()
	g.Freeze()
	st := NewStats(g)
	p, _ := g.Dict.Lookup(NewIRI("p"))
	if got := st.Predicate(p); got.Count != 6 {
		t.Fatalf("baseline count = %d, want 6", got.Count)
	}
	del := func(s, o string) {
		t.Helper()
		sid, _ := g.Dict.Lookup(NewIRI(s))
		oid, _ := g.Dict.Lookup(NewIRI(o))
		if !g.Delete(Triple{S: sid, P: p, O: oid}) {
			t.Fatalf("Delete(%s p %s) missed", s, o)
		}
	}
	// s3 keeps (s3,p,o2), so the subject must NOT retire yet.
	del("s3", "o1")
	if ps := st.Predicate(p); ps.Count != 5 || ps.DistinctSubjects != 3 || ps.DistinctObjects != 2 {
		t.Fatalf("after first delete = %+v, want {5 3 2}", ps)
	}
	// s3's last triple: now the subject retires.
	del("s3", "o2")
	if ps := st.Predicate(p); ps.Count != 4 || ps.DistinctSubjects != 2 || ps.DistinctObjects != 2 {
		t.Fatalf("after s3 gone = %+v, want {4 2 2}", ps)
	}
	// Every remaining o1 carrier: the object retires.
	del("s1", "o1")
	del("s2", "o1")
	if ps := st.Predicate(p); ps.Count != 2 || ps.DistinctSubjects != 2 || ps.DistinctObjects != 1 {
		t.Fatalf("after o1 gone = %+v, want {2 2 1}", ps)
	}
	// A reinsert after deletes folds back in.
	g.AddTerms(NewIRI("s3"), NewIRI("p"), NewIRI("o1"))
	if ps := st.Predicate(p); ps.Count != 3 || ps.DistinctSubjects != 3 || ps.DistinctObjects != 2 {
		t.Fatalf("after reinsert = %+v, want {3 3 2}", ps)
	}
	// Compaction starts a new generation; the refold agrees.
	g.Compact()
	if ps := st.Predicate(p); ps.Count != 3 || ps.DistinctSubjects != 3 || ps.DistinctObjects != 2 {
		t.Fatalf("after compaction = %+v, want {3 3 2}", ps)
	}
	// The lock-free live counter the planner scales by tracks too:
	// 3 live p triples + 2 untouched q triples.
	if got := g.NumTriples(); got != 5 {
		t.Fatalf("NumTriples = %d, want 5", got)
	}
}

// TestSnapshotIdentityAccessors smokes the snapshot's identity surface.
func TestSnapshotIdentityAccessors(t *testing.T) {
	g := statsGraph()
	g.Freeze()
	g.AddTerms(NewIRI("s9"), NewIRI("p"), NewIRI("o9"))
	sn := g.Snapshot()
	defer sn.Close()
	if sn.Dict() != g.Dict {
		t.Error("Snapshot.Dict is not the graph's dictionary")
	}
	if sn.Graph() != g {
		t.Error("Snapshot.Graph is not the source graph")
	}
	if id := g.Dict.Encode(NewLiteral("lit")); g.Dict.Decode(id).Value != "lit" {
		t.Error("literal round trip failed")
	}
	if g.Dict.String() == "" || (Triple{1, 2, 3}).String() == "" {
		t.Error("debug Strings empty")
	}
}

func TestEstimateTriplePattern(t *testing.T) {
	g := statsGraph()
	st := NewStats(g)
	p, _ := g.Dict.Lookup(NewIRI("p"))
	if got := st.EstimateTriplePattern(p, false, false); got != 6 {
		t.Errorf("unbound = %d, want 6", got)
	}
	if got := st.EstimateTriplePattern(p, true, false); got != 2 {
		t.Errorf("subject bound = %d, want 6/3=2", got)
	}
	if got := st.EstimateTriplePattern(p, false, true); got != 3 {
		t.Errorf("object bound = %d, want 6/2=3", got)
	}
	if got := st.EstimateTriplePattern(p, true, true); got != 1 {
		t.Errorf("both bound = %d, want 1", got)
	}
	if got := st.EstimateTriplePattern(9999, false, false); got != 0 {
		t.Errorf("unknown predicate = %d, want 0", got)
	}
}
