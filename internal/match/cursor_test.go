package match

import (
	"testing"
	"testing/quick"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// edges walks a run to its end: the reference below reads whole runs, as
// the slice accessors it was written against returned them.
func edges(r *rdf.Run) (ps []rdf.Pair) {
	c := rdf.Cursor{Run: *r}
	for e, ok := c.Next(); ok; e, ok = c.Next() {
		ps = append(ps, e)
	}
	return ps
}

// referenceCandidates is the pre-CSR slice-based candidate enumeration,
// kept as the oracle the cursor must agree with: it materializes every
// candidate triple for edge e under the searcher's current bindings.
func referenceCandidates(s *searcher, e sparql.Edge) []rdf.Triple {
	fromBound := s.bound[e.From]
	toBound := s.bound[e.To]
	switch {
	case fromBound && toBound:
		sub := s.m.Vertex[e.From]
		obj := s.m.Vertex[e.To]
		var out []rdf.Triple
		for _, h := range edges(new(rdf.Run).Out(s.g, sub)) {
			if h.B == obj {
				out = append(out, rdf.Triple{S: sub, P: h.A, O: obj})
			}
		}
		return out
	case fromBound:
		sub := s.m.Vertex[e.From]
		var out []rdf.Triple
		for _, h := range edges(new(rdf.Run).Out(s.g, sub)) {
			out = append(out, rdf.Triple{S: sub, P: h.A, O: h.B})
		}
		return out
	case toBound:
		obj := s.m.Vertex[e.To]
		var out []rdf.Triple
		for _, h := range edges(new(rdf.Run).In(s.g, obj)) {
			out = append(out, rdf.Triple{S: h.B, P: h.A, O: obj})
		}
		return out
	case !e.IsPredVar():
		var out []rdf.Triple
		for _, so := range edges(new(rdf.Run).Pred(s.g, e.Pred)) {
			out = append(out, rdf.Triple{S: so.A, P: e.Pred, O: so.B})
		}
		return out
	default:
		return s.g.Triples()
	}
}

// next steps c the way search's loop does: to the next listed triple, or
// to the next entry of the run that the far endpoint lets through,
// rebuilt as a triple.
func (c *candCursor) next(t *rdf.Triple) bool {
	for {
		if c.dir == curList {
			if len(c.list) == 0 {
				return false
			}
			*t, c.list = c.list[0], c.list[1:]
			return true
		}
		p, ok := c.run.Next()
		if !ok {
			return false
		}
		if tr, ok := c.triple(p); ok {
			*t = tr
			return true
		}
	}
}

// cursorCandidates drains a candCursor for edge e.
func cursorCandidates(s *searcher, e sparql.Edge) []rdf.Triple {
	var cur candCursor
	s.initCursor(&cur, e)
	var out []rdf.Triple
	var t rdf.Triple
	for cur.next(&t) {
		out = append(out, t)
	}
	return out
}

// newTestSearcher builds a searcher with no bindings yet.
func newTestSearcher(q *sparql.Graph, g *rdf.Graph) *searcher {
	return &searcher{
		q: q,
		g: g.Snapshot(),
		m: &Match{
			Vertex:  make([]rdf.ID, len(q.Verts)),
			Pred:    make(map[string]rdf.ID),
			Triples: make([]rdf.Triple, len(q.Edges)),
		},
		bound: make([]bool, len(q.Verts)),
	}
}

func tripleSet(ts []rdf.Triple) map[rdf.Triple]int {
	m := make(map[rdf.Triple]int, len(ts))
	for _, t := range ts {
		m[t]++
	}
	return m
}

func sameTripleMultiset(a, b []rdf.Triple) bool {
	as, bs := tripleSet(a), tripleSet(b)
	if len(as) != len(bs) {
		return false
	}
	for t, n := range as {
		if bs[t] != n {
			return false
		}
	}
	return true
}

// predOfCursor must agree with predOK: every const-pred candidate carries
// the edge's predicate. The cursor pre-filters; the reference relies on
// predOK downstream, so compare after applying predOK to both.
func filterPredOK(s *searcher, e sparql.Edge, ts []rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	for _, t := range ts {
		if s.predOK(e, t.P) {
			out = append(out, t)
		}
	}
	return out
}

// TestCursorAgreesWithReferenceProperty: for random graphs, queries and
// binding states — frozen and all delta — the cursor enumerates exactly the
// reference candidate multiset (modulo predOK filtering and order).
func TestCursorAgreesWithReferenceProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64, bindMask uint8, freeze bool) bool {
		g := randomData(dataSeed, 25)
		if freeze {
			g.Freeze()
		}
		q := randomQuery(querySeed, 3)
		s := newTestSearcher(q, g)
		// Bind an arbitrary subset of query vertices to arbitrary data
		// vertices, exercising all four cursor modes.
		dom := s.g.Vertices()
		if len(dom) == 0 {
			return true
		}
		for i := range q.Verts {
			if bindMask&(1<<uint(i%8)) != 0 {
				s.bound[i] = true
				s.m.Vertex[i] = dom[(uint64(dataSeed)+uint64(i))%uint64(len(dom))]
			}
		}
		for _, e := range q.Edges {
			ref := filterPredOK(s, e, referenceCandidates(s, e))
			got := filterPredOK(s, e, cursorCandidates(s, e))
			if !sameTripleMultiset(ref, got) {
				t.Logf("edge %+v: ref %v, cursor %v (frozen=%v)", e, ref, got, freeze)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFrozenMatchEquivalenceProperty: Find returns the same match set on
// a frozen graph as on one a run of Adds left all delta, and both agree
// with the model.
func TestFrozenMatchEquivalenceProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64) bool {
		added := randomData(dataSeed, 15)
		frozen := randomData(dataSeed, 15)
		frozen.Freeze()
		q := randomQuery(querySeed, 3)
		keys := func(ms []Match) map[string]bool {
			seen := map[string]bool{}
			for _, m := range ms {
				key := ""
				for _, id := range m.Vertex {
					key += string(rune(id)) + "|"
				}
				seen[key] = true
			}
			return seen
		}
		a := keys(Find(q, added.Snapshot(), Options{}))
		b := keys(Find(q, frozen.Snapshot(), Options{}))
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return len(a) == modelCount(q, added)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestFrozenVarPredEquivalence: variable-predicate edges (the curTris
// full-scan mode plus pred bindings) agree between an all-delta graph and
// a frozen one.
func TestFrozenVarPredEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		added := randomData(seed, 20)
		frozen := randomData(seed, 20)
		frozen.Freeze()
		q := sparql.MustParse(added.Dict, `SELECT * WHERE { ?x ?p ?y . ?y ?p ?z . }`)
		if a, b := Count(q, added.Snapshot(), Options{}), Count(q, frozen.Snapshot(), Options{}); a != b {
			t.Fatalf("seed %d: all-delta count %d != frozen count %d", seed, a, b)
		}
	}
}

// TestCandidateEnumerationZeroAllocs: draining the cursor over a frozen
// graph's candidates — the matcher's inner loop — performs zero heap
// allocations, for every cursor mode.
func TestCandidateEnumerationZeroAllocs(t *testing.T) {
	g := hubGraph(2048, 8)
	g.Freeze()
	hub, _ := g.Dict.Lookup(rdf.NewIRI("hub"))
	p5, _ := g.Dict.Lookup(rdf.NewIRI("p5"))

	cases := []struct {
		name  string
		query string
		setup func(s *searcher)
		want  int
	}{
		{
			name:  "bound-subject-const-pred",
			query: `SELECT ?x WHERE { <hub> <p5> ?x . }`,
			want:  2048 / 8,
		},
		{
			name:  "bound-subject-var-pred",
			query: `SELECT ?x ?p WHERE { <hub> ?p ?x . }`,
			want:  2048,
		},
		{
			name:  "unbound-const-pred",
			query: `SELECT ?s ?x WHERE { ?s <p5> ?x . }`,
			want:  2048 / 8,
		},
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
				t.Errorf("candidate enumeration allocates %.1f per run, want 0", allocs)
			}
		})
	}
	_ = hub
	_ = p5
}

// TestMatchAllocsIndependentOfFanout: a full matcher run's allocation
// count must not scale with the number of candidates scanned — the
// per-candidate inner loop is allocation-free, so total allocations per
// query are a small constant (searcher setup only).
func TestMatchAllocsIndependentOfFanout(t *testing.T) {
	alloc := func(fanout int) float64 {
		g := hubGraph(fanout, 8)
		g.Freeze()
		q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
		// ForEach: this guards the sequential search's inner loop,
		// which Count no longer runs for a tree pattern.
		return testing.AllocsPerRun(50, func() {
			ForEach(q, g.Snapshot(), Options{}, func(*Match) bool { return true })
		})
	}
	small, large := alloc(64), alloc(4096)
	if small != large {
		t.Errorf("allocs grew with fanout: %0.f (fanout 64) vs %0.f (fanout 4096)", small, large)
	}
}
