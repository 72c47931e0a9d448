package match

// The match half of the differential mutation/query harness: random
// interleavings of Add/Delete/Freeze/Compact and queries run against an
// evolving delta-carrying graph and, after every step, a graph rebuilt
// from scratch out of its triples — and the matcher must return
// byte-identical results on overlay vs rebuild (the merge cursor
// reproduces the rebuilt CSR's enumeration order exactly) and as many
// matches as the model answers rows. The parallel morsel fan-out is
// held to the same byte-identical standard over delta-carrying roots.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// TestDeltaOverlayMatchDifferentialProperty: after every mutation step,
// Find on the overlaid graph is byte-identical to Find on a freshly
// rebuilt one, and counts what the model counts.
func TestDeltaOverlayMatchDifferentialProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64) bool {
		r := rand.New(rand.NewSource(dataSeed))
		overlay := rdf.NewGraph(nil)
		if dataSeed%3 == 0 {
			overlay.SetAutoCompact(0.0001) // compact on every delta add
		} else {
			overlay.SetAutoCompact(-1) // let the delta grow
		}
		q := randomQuery(querySeed, 3)
		const nv, np = 6, 3
		randomTriple := func() rdf.Triple {
			return rdf.Triple{
				S: rdf.ID(r.Intn(nv)),
				P: rdf.ID(nv + r.Intn(np)),
				O: rdf.ID(r.Intn(nv)),
			}
		}
		for step := 0; step < 40; step++ {
			switch op := r.Intn(10); {
			case op < 6:
				tr := randomTriple()
				overlay.Add(tr)
			case op < 8: // Delete: a live triple, or a possibly-absent one
				var tr rdf.Triple
				if live := overlay.Triples(); len(live) > 0 && r.Intn(2) == 0 {
					tr = live[r.Intn(len(live))]
				} else {
					tr = randomTriple()
				}
				overlay.Delete(tr)
			case op < 9:
				overlay.Freeze()
			default:
				overlay.Compact()
			}
			rebuilt := rdf.NewFrozen(overlay.Dict, slices.Clone(overlay.Triples()))

			got := Find(q, overlay.Snapshot(), Options{Parallelism: 1})
			want := Find(q, rebuilt.Snapshot(), Options{Parallelism: 1})
			if !reflect.DeepEqual(got, want) {
				t.Logf("step %d (delta=%d): overlay Find not byte-identical to rebuilt (%d vs %d matches)",
					step, overlay.DeltaLen(), len(got), len(want))
				return false
			}
			if Count(q, overlay.Snapshot(), Options{Parallelism: 1}) != modelCount(q, rebuilt) {
				t.Logf("step %d: overlay diverged from the model", step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// deltaHubGraph freezes a hub graph and then streams extra hub edges into
// the delta overlay (auto-compaction off, so the delta survives),
// interleaving predicates and objects so delta elements land between CSR
// run elements in (P, Other) order.
func deltaHubGraph(fanout, preds, deltaEdges int) *rdf.Graph {
	g := hubGraph(fanout, preds)
	g.Freeze()
	g.SetAutoCompact(-1)
	hub := g.Dict.Encode(rdf.NewIRI("hub"))
	for i := 0; i < deltaEdges; i++ {
		o := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("d%d", i)))
		p := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("p%d", i%preds)))
		g.Add(rdf.Triple{S: hub, P: p, O: o})
	}
	return g
}

// tombHubGraph layers tombstones over deltaHubGraph: every 7th base hub
// edge and every 5th delta edge is deleted, plus one delete-then-reinsert
// and one never-inserted no-op, so the visible window interleaves insert
// and tombstone runs against the base CSR.
func tombHubGraph(fanout, preds, deltaEdges int) *rdf.Graph {
	g := deltaHubGraph(fanout, preds, deltaEdges)
	hub := g.Dict.Encode(rdf.NewIRI("hub"))
	for i := 0; i < fanout; i += 7 {
		o := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("o%d", i)))
		p := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("p%d", i%preds)))
		if !g.Delete(rdf.Triple{S: hub, P: p, O: o}) {
			panic("tombHubGraph: base edge missing")
		}
	}
	for i := 0; i < deltaEdges; i += 5 {
		o := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("d%d", i)))
		p := g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("p%d", i%preds)))
		if !g.Delete(rdf.Triple{S: hub, P: p, O: o}) {
			panic("tombHubGraph: delta edge missing")
		}
	}
	// Delete-then-reinsert: the later insert must win over the tombstone.
	re := rdf.Triple{S: hub, P: g.Dict.Encode(rdf.NewIRI("p0")), O: g.Dict.Encode(rdf.NewIRI("o0"))}
	g.Delete(re)
	g.Add(re)
	// Never-inserted: a pure no-op, not a phantom the merge could trip on.
	g.Delete(rdf.Triple{S: hub, P: g.Dict.Encode(rdf.NewIRI("p0")), O: g.Dict.Encode(rdf.NewIRI("never"))})
	return g
}

// TestParallelDeltaByteIdentical: the morsel fan-out over a root run that
// carries a delta overlay (base and delta partitioned along the same
// boundary keys) returns exactly the sequential enumeration at several
// worker counts, and Count and MatchedGraph agree with it.
func TestParallelDeltaByteIdentical(t *testing.T) {
	g := deltaHubGraph(2048, 8, 300)
	if g.DeltaLen() == 0 {
		t.Fatal("setup lost the delta")
	}
	queries := []string{
		`SELECT ?x WHERE { <hub> <p5> ?x . }`,
		`SELECT ?x ?p WHERE { <hub> ?p ?x . }`,
		`SELECT ?s ?x WHERE { ?s <p3> ?x . }`,
	}
	for _, qs := range queries {
		q := sparql.MustParse(g.Dict, qs)
		seq := Find(q, g.Snapshot(), Options{Parallelism: 1})
		for _, w := range []int{2, 4, 8} {
			par := Find(q, g.Snapshot(), Options{Parallelism: w})
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: parallel(%d) Find diverged from sequential (%d vs %d matches)",
					qs, w, len(par), len(seq))
			}
		}
		if c := Count(q, g.Snapshot(), Options{}); c != len(seq) {
			t.Fatalf("%s: Count = %d, want %d", qs, c, len(seq))
		}
		if !slices.Equal(MatchedGraph(q, g.Snapshot(), Options{}).Triples(), usedTriples(seq)) {
			t.Fatalf("%s: MatchedGraph is not the triples the matches use", qs)
		}
	}
}

// TestParallelTombstoneByteIdentical: the three-run morsel fan-out (base,
// insert and tombstone runs all carved along the same boundary keys)
// returns exactly the sequential enumeration when the visible window
// carries deletes — byte-identical Find at several worker counts, and a
// Count and a MatchedGraph that agree with it.
func TestParallelTombstoneByteIdentical(t *testing.T) {
	g := tombHubGraph(2048, 8, 300)
	if g.DeltaLen() <= 300 { // the inserts alone
		t.Fatal("setup lost the tombstones")
	}
	queries := []string{
		`SELECT ?x WHERE { <hub> <p5> ?x . }`,
		`SELECT ?x ?p WHERE { <hub> ?p ?x . }`,
		`SELECT ?s ?x WHERE { ?s <p3> ?x . }`,
	}
	for _, qs := range queries {
		q := sparql.MustParse(g.Dict, qs)
		seq := Find(q, g.Snapshot(), Options{Parallelism: 1})
		for _, w := range []int{2, 4, 8} {
			par := Find(q, g.Snapshot(), Options{Parallelism: w})
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: parallel(%d) Find diverged from sequential over tombstones (%d vs %d matches)",
					qs, w, len(par), len(seq))
			}
		}
		if c := Count(q, g.Snapshot(), Options{}); c != len(seq) {
			t.Fatalf("%s: Count = %d over tombstones, want %d", qs, c, len(seq))
		}
		if !slices.Equal(MatchedGraph(q, g.Snapshot(), Options{}).Triples(), usedTriples(seq)) {
			t.Fatalf("%s: MatchedGraph is not the triples the matches use over tombstones", qs)
		}
		// No deleted edge may leak into any match.
		sn := g.Snapshot()
		for _, m := range seq {
			for _, tr := range m.Triples {
				if !sn.Has(tr) {
					t.Fatalf("%s: match carries tombstoned triple %v", qs, tr)
				}
			}
		}
		sn.Close()
	}
}

// usedTriples lists the triples some match uses, in (S, P, O) order.
func usedTriples(ms []Match) []rdf.Triple {
	var used []rdf.Triple
	for _, m := range ms {
		used = append(used, m.Triples...)
	}
	slices.SortFunc(used, rdf.CompareSPO)
	return slices.Compact(used)
}

// TestDeltaCursorZeroAllocs: draining the merge cursor over a
// delta-carrying frozen graph stays allocation-free per candidate — the
// AllocsPerRun guard the live-update path must keep.
func TestDeltaCursorZeroAllocs(t *testing.T) {
	g := deltaHubGraph(2048, 8, 256)
	hubOut := 2048/8 + 256/8
	cases := []struct {
		name  string
		query string
		want  int
	}{
		{"bound-subject-const-pred", `SELECT ?x WHERE { <hub> <p5> ?x . }`, hubOut},
		{"bound-subject-var-pred", `SELECT ?x ?p WHERE { <hub> ?p ?x . }`, 2048 + 256},
		{"unbound-const-pred", `SELECT ?s ?x WHERE { ?s <p5> ?x . }`, hubOut},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := sparql.MustParse(g.Dict, tc.query)
			s := newTestSearcher(q, g)
			for i, v := range q.Verts {
				if !v.IsVar() {
					s.bound[i] = true
					s.m.Vertex[i] = v.Term
				}
			}
			e := q.Edges[0]
			allocs := testing.AllocsPerRun(100, func() {
				var cur candCursor
				s.initCursor(&cur, e)
				var tr rdf.Triple
				n := 0
				for cur.next(&tr) {
					n++
				}
				if n != tc.want {
					t.Fatalf("cursor yielded %d candidates, want %d", n, tc.want)
				}
			})
			if allocs != 0 {
				t.Errorf("delta-merge candidate enumeration allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

// TestEmptyDeltaFastPathUntouched pins the steady state: over a frozen
// graph with an empty delta the cursor walks the CSR run alone (that the
// run then carries no delta runs is rdf's TestRunAgreesWithNaiveSetProperty)
// and candidate enumeration stays zero-alloc.
func TestEmptyDeltaFastPathUntouched(t *testing.T) {
	g := hubGraph(2048, 8)
	g.Freeze()
	if g.DeltaLen() != 0 {
		t.Fatal("setup: expected a graph with an empty delta")
	}
	sn := g.Snapshot()
	defer sn.Close()
	hub := sn.Vertices()[0]
	if run := new(rdf.Run).Out(sn, hub); run.BaseLen() != 2048 || run.Len() != 2048 {
		t.Fatalf("the hub's run has %d entries, %d of them in the CSR; want 2048, all of them", run.Len(), run.BaseLen())
	}
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
	s := newTestSearcher(q, g)
	for i, v := range q.Verts {
		if !v.IsVar() {
			s.bound[i] = true
			s.m.Vertex[i] = v.Term
		}
	}
	e := q.Edges[0]
	allocs := testing.AllocsPerRun(100, func() {
		var cur candCursor
		s.initCursor(&cur, e)
		var tr rdf.Triple
		n := 0
		for cur.next(&tr) {
			n++
		}
		if n != 2048/8 {
			t.Fatalf("cursor enumerated %d candidates, want %d", n, 2048/8)
		}
	})
	if allocs != 0 {
		t.Errorf("empty-delta fast path allocates %.1f per run, want 0", allocs)
	}
}

// TestTombstoneCursorZeroAllocs: the three-run merge (base vs insert vs
// tombstone) filters deleted candidates without allocating — deletes must
// not push the matcher's candidate enumeration onto the heap.
func TestTombstoneCursorZeroAllocs(t *testing.T) {
	g := tombHubGraph(2048, 8, 256)
	if g.DeltaLen() <= 256 { // the inserts alone
		t.Fatal("setup lost the tombstones")
	}
	sn := g.Snapshot()
	hub := g.Dict.Encode(rdf.NewIRI("hub"))
	p5 := g.Dict.Encode(rdf.NewIRI("p5"))
	// Expected candidate counts come from the degree accessors, which the
	// rdf differential suite pins against the naive oracle.
	wantP5 := sn.OutDegreeP(hub, p5)
	wantAll := sn.OutDegree(hub)
	sn.Close()
	cases := []struct {
		name  string
		query string
		want  int
	}{
		{"bound-subject-const-pred", `SELECT ?x WHERE { <hub> <p5> ?x . }`, wantP5},
		{"bound-subject-var-pred", `SELECT ?x ?p WHERE { <hub> ?p ?x . }`, wantAll},
		{"unbound-const-pred", `SELECT ?s ?x WHERE { ?s <p5> ?x . }`, wantP5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := sparql.MustParse(g.Dict, tc.query)
			s := newTestSearcher(q, g)
			for i, v := range q.Verts {
				if !v.IsVar() {
					s.bound[i] = true
					s.m.Vertex[i] = v.Term
				}
			}
			e := q.Edges[0]
			allocs := testing.AllocsPerRun(100, func() {
				var cur candCursor
				s.initCursor(&cur, e)
				var tr rdf.Triple
				n := 0
				for cur.next(&tr) {
					n++
				}
				if n != tc.want {
					t.Fatalf("cursor yielded %d candidates, want %d", n, tc.want)
				}
			})
			if allocs != 0 {
				t.Errorf("tombstone-merge candidate enumeration allocates %.1f per run, want 0", allocs)
			}
		})
	}
}
