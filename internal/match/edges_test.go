package match

// MatchedEdges against what MatchedGraph did before edge sets existed:
// every triple of every match replayed through Add. That body is kept
// here as the oracle; the edge set must hold exactly its triples,
// whatever the snapshot carries in its delta or the vertex filter, and
// whether the reducer or the search finds them.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

func matchedGraphOracle(q *sparql.Graph, g *rdf.Snapshot, opts Options) *rdf.Graph {
	sub := rdf.NewGraph(nil) // IDs of g's dictionary
	if len(q.Edges) == 0 {
		return sub
	}
	forEachOrdered(q, g, opts, edgeOrder(q, g), func(m *Match) bool {
		for _, t := range m.Triples {
			sub.Add(t)
		}
		return true
	})
	return sub
}

// storageModes builds the same random triple set three ways: frozen,
// frozen under an insert-only delta, frozen under a delta with tombstones
// (one of them re-inserted afterwards).
func storageModes(seed int64, triples int) map[string]*rdf.Graph {
	r := rand.New(rand.NewSource(seed))
	all := randomData(seed, triples).Triples()
	frozen := rdf.NewFrozen(nil, slices.Clone(all))

	split := len(all) * 2 / 3
	inserts := rdf.NewFrozen(nil, slices.Clone(all[:split]))
	inserts.SetAutoCompact(-1)
	for _, t := range all[split:] {
		inserts.Add(t)
	}

	tombs := rdf.NewFrozen(nil, slices.Clone(all))
	tombs.SetAutoCompact(-1)
	var gone []rdf.Triple
	for _, t := range all {
		if r.Intn(4) == 0 {
			tombs.Delete(t)
			gone = append(gone, t)
		}
	}
	if len(gone) > 0 {
		tombs.Add(gone[0])
	}
	for i := 0; i < 10; i++ {
		tombs.Add(rdf.Triple{S: rdf.ID(r.Intn(6)), P: rdf.ID(6 + r.Intn(3)), O: rdf.ID(r.Intn(6))})
	}
	return map[string]*rdf.Graph{"frozen": frozen, "inserts": inserts, "tombstones": tombs}
}

// checkEdgeSet compares MatchedEdges with the oracle on one snapshot,
// logging the disagreement if there is one.
func checkEdgeSet(t *testing.T, q *sparql.Graph, sn *rdf.Snapshot, filter func(int, rdf.ID) bool) bool {
	t.Helper()
	opts := Options{VertexFilter: filter}
	want := slices.Clone(matchedGraphOracle(q, sn, opts).Triples())
	slices.SortFunc(want, rdf.CompareSPO)
	set := MatchedEdges(q, sn, opts)
	if got := set.Triples(); set.Len() != len(want) || !slices.Equal(got, want) {
		t.Logf("edge set has %d triples (Len %d), the old MatchedGraph %d", len(got), set.Len(), len(want))
		return false
	}
	if sub := MatchedGraph(q, sn, opts); sub.DeltaLen() != 0 || !slices.Equal(sub.Triples(), want) {
		t.Logf("MatchedGraph is not the edge set's triples in one generation")
		return false
	}
	return true
}

func TestMatchedEdgesEqualsOldMatchedGraphProperty(t *testing.T) {
	evenRoot := func(qv int, id rdf.ID) bool { return qv != 0 || id%2 == 0 }
	var reduced, searched bool
	f := func(dataSeed, querySeed int64) bool {
		q := randomQuery(querySeed, 3)
		for name, g := range storageModes(dataSeed, 90) {
			sn := g.Snapshot()
			if reduces(q, sn, Options{}) {
				reduced = true
			} else {
				searched = true
			}
			for _, filter := range []func(int, rdf.ID) bool{nil, evenRoot} {
				if !checkEdgeSet(t, q, sn, filter) {
					t.Logf("storage %s, filter %v, data seed %d, query seed %d", name, filter != nil, dataSeed, querySeed)
					return false
				}
			}
			sn.Close()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if !reduced || !searched {
		t.Errorf("the reducer took a case: %v; the search: %v", reduced, searched)
	}
}

func TestMatchedEdgesCornerCases(t *testing.T) {
	// A hub with 300 out-edges under one predicate: the two-edge star
	// matches 90 000 times over 300 edges.
	hub := hubGraph(300, 1)
	h, other := hub.Dict.Encode(rdf.NewIRI("hub")), hub.Dict.Encode(rdf.NewIRI("q"))
	for i := 0; i < 300; i += 3 {
		hub.Add(rdf.Triple{S: hub.Dict.Encode(rdf.NewIRI(fmt.Sprintf("o%d", i))), P: other, O: h})
	}
	hub.Freeze()
	star := sparql.MustParse(hub.Dict, `SELECT * WHERE { ?h <p0> ?a . ?h <p0> ?b . }`)
	if n := Count(star, hub.Snapshot(), Options{}); n != 90000 {
		t.Fatalf("star matches %d times, want 90000", n)
	}
	cases := map[string]*sparql.Graph{
		"matches ≫ edges":     star,
		"predicate variable":  sparql.MustParse(hub.Dict, `SELECT * WHERE { ?x ?p ?y . ?y <q> ?z . }`),
		"two pred variables":  sparql.MustParse(hub.Dict, `SELECT * WHERE { <hub> ?p ?y . ?y ?r <hub> . }`),
		"no match":            sparql.MustParse(hub.Dict, `SELECT * WHERE { ?x <q> ?y . ?y <q> ?z . ?z <q> ?x . }`),
		"unknown predicate":   sparql.MustParse(hub.Dict, `SELECT * WHERE { ?x <never> ?y . }`),
		"one query edge used": sparql.MustParse(hub.Dict, `SELECT * WHERE { ?x <p0> ?y . }`),
	}
	for name, q := range cases {
		if !checkEdgeSet(t, q, hub.Snapshot(), nil) {
			t.Errorf("%s: edge set differs from the old MatchedGraph", name)
		}
	}
	if n := MatchedEdges(cases["no match"], hub.Snapshot(), Options{}).Len(); n != 0 {
		t.Errorf("a pattern without matches has %d edges", n)
	}
	if n := MatchedEdges(sparql.NewGraph(), hub.Snapshot(), Options{}).Len(); n != 0 {
		t.Errorf("the empty pattern has %d edges", n)
	}
}

// TestMatchedEdgesAllocsIndependentOfMatches: recording the edges of a
// pattern, and counting its matches, cost one bitmap and a fixed set-up,
// not a cell per match or per matched triple — the count stays put when
// the hub's degree doubles and the matches quadruple. The star is a tree,
// which the reducer takes; the triangle, whose closing edge is the
// hub's self-loop, is searched. Under the race detector, whose sync.Pool
// drops pooled values at random, only the triangle runs: the search
// pools nothing.
func TestMatchedEdgesAllocsIndependentOfMatches(t *testing.T) {
	const ceiling = 24 // measured: 3 reduced, 20 searched
	for _, c := range []struct {
		pattern string
		reduced bool
	}{
		{`SELECT * WHERE { ?h <p0> ?a . ?h <p0> ?b . }`, true},
		{`SELECT * WHERE { ?h <p0> ?a . ?h <p0> ?b . ?b <p0> ?a . }`, false},
	} {
		if raceOn && c.reduced {
			continue
		}
		var perDegree []float64
		for _, degree := range []int{400, 800} {
			g := hubGraph(degree, 1)
			hub, _ := g.Dict.Lookup(rdf.NewIRI("hub"))
			g.Add(rdf.Triple{S: hub, P: g.Triples()[0].P, O: hub})
			g.Freeze()
			sn := g.Snapshot()
			q := sparql.MustParse(g.Dict, c.pattern)
			if reduces(q, sn, Options{}) != c.reduced {
				t.Fatalf("%s: reduced %v, want %v", c.pattern, !c.reduced, c.reduced)
			}
			if n := MatchedEdges(q, sn, Options{}).Len(); n != degree+1 {
				t.Fatalf("%s, degree %d: %d edges matched, want the hub's %d", c.pattern, degree, n, degree+1)
			}
			perDegree = append(perDegree, testing.AllocsPerRun(3, func() {
				MatchedEdges(q, sn, Options{})
				Count(q, sn, Options{})
			}))
		}
		t.Logf("%s: %v allocs at degree 400 and 800", c.pattern, perDegree)
		if perDegree[0] > ceiling || perDegree[1] > perDegree[0]+2 {
			t.Errorf("%s: %v allocs per call at degree 400 and 800; want ≤ %d and no growth", c.pattern, perDegree, ceiling)
		}
	}
}
