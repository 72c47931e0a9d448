package match

// MatchedEdges against what MatchedGraph did before edge sets existed:
// every triple of every match appended to a per-morsel bucket and the
// buckets replayed through Add. That body is kept here as the oracle;
// the edge set must hold exactly its triples, whatever the snapshot
// carries in its delta, the worker count or the vertex filter.

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
	sub := rdf.NewGraph(g.Dict())
	if len(q.Edges) == 0 {
		return sub
	}
	order := edgeOrder(q, g)
	if r := planParallel(q, g, opts, order); r != nil {
		buckets := make([][]rdf.Triple, r.numMorsels)
		r.run(func(int) workerHooks {
			return workerHooks{onMatch: func(morsel int, m *Match) bool {
				buckets[morsel] = append(buckets[morsel], m.Triples...)
				return true
			}}
		})
		for _, b := range buckets {
			for _, t := range b {
				sub.Add(t)
			}
		}
		return sub
	}
	forEachOrdered(q, g, opts, order, func(m *Match) bool {
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

// checkEdgeSet compares MatchedEdges with the oracle on one snapshot
// under every worker count, returning a description of the first
// disagreement.
func checkEdgeSet(t *testing.T, q *sparql.Graph, sn *rdf.Snapshot, filter func(int, rdf.ID) bool) bool {
	t.Helper()
	want := slices.Clone(matchedGraphOracle(q, sn, Options{Parallelism: 1, VertexFilter: filter}).Triples())
	slices.SortFunc(want, rdf.CompareSPO)
	for _, workers := range []int{1, 2, 8} {
		opts := Options{Parallelism: workers, VertexFilter: filter}
		set := MatchedEdges(q, sn, opts)
		got := set.Triples()
		if set.Len() != len(want) || !slices.Equal(got, want) {
			t.Logf("workers=%d: edge set has %d triples (Len %d), the old MatchedGraph %d", workers, len(got), set.Len(), len(want))
			return false
		}
		if sub := MatchedGraph(q, sn, opts); sub.DeltaLen() != 0 || !slices.Equal(sub.Triples(), want) {
			t.Logf("workers=%d: MatchedGraph is not the edge set's triples in one generation", workers)
			return false
		}
	}
	return true
}

func TestMatchedEdgesEqualsOldMatchedGraphProperty(t *testing.T) {
	evenRoot := func(qv int, id rdf.ID) bool { return qv != 0 || id%2 == 0 }
	engaged := false
	f := func(dataSeed, querySeed int64) bool {
		q := randomQuery(querySeed, 3)
		for name, g := range storageModes(dataSeed, 90) {
			sn := g.Snapshot()
			engaged = engaged || planParallel(q, sn, Options{Parallelism: 8}, edgeOrder(q, sn)) != nil
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
	if !engaged {
		t.Error("no case was large enough for the morsel fan-out")
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
// pattern costs one bitmap per enumerating goroutine and the search's
// fixed set-up, not a cell per match or per matched triple — the count
// stays put when the hub's degree doubles and the matches quadruple.
func TestMatchedEdgesAllocsIndependentOfMatches(t *testing.T) {
	const ceiling = 80 // measured: 12 sequential, 69 with four workers
	for _, workers := range []int{1, 4} {
		var perDegree []float64
		for _, degree := range []int{400, 800} {
			g := hubGraph(degree, 1)
			g.Freeze()
			sn := g.Snapshot()
			star := sparql.MustParse(g.Dict, `SELECT * WHERE { ?h <p0> ?a . ?h <p0> ?b . }`)
			if n := MatchedEdges(star, sn, Options{Parallelism: workers}).Len(); n != degree {
				t.Fatalf("degree %d: %d edges matched", degree, n)
			}
			perDegree = append(perDegree, testing.AllocsPerRun(3, func() {
				MatchedEdges(star, sn, Options{Parallelism: workers})
			}))
		}
		t.Logf("workers=%d: %v allocs at 160 000 and 640 000 matches", workers, perDegree)
		if perDegree[0] > ceiling || perDegree[1] > perDegree[0]+2 {
			t.Errorf("workers=%d: %v allocs per call at degree 400 and 800; want ≤ %d and no growth", workers, perDegree, ceiling)
		}
	}
}
