package match

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdffrag/internal/model"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// randomData builds a small random data graph.
func randomData(seed int64, triples int) *rdf.Graph {
	r := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph(nil)
	nv := 6
	np := 3
	for i := 0; i < triples; i++ {
		g.Add(rdf.Triple{
			S: rdf.ID(r.Intn(nv)),
			P: rdf.ID(nv + r.Intn(np)),
			O: rdf.ID(r.Intn(nv)),
		})
	}
	return g
}

// randomQuery builds a small random connected query over the same ID
// space (predicates nv..nv+np).
func randomQuery(seed int64, edges int) *sparql.Graph {
	r := rand.New(rand.NewSource(seed))
	g := sparql.NewGraph()
	vars := []string{"x", "y", "z", "w"}
	n := 1 + r.Intn(edges)
	for i := 0; i < n; i++ {
		var from string
		if i == 0 || len(g.Verts) == 0 {
			from = vars[r.Intn(2)]
		} else {
			// reuse an existing variable to stay connected
			cand := g.Verts[r.Intn(len(g.Verts))]
			from = cand.Var
		}
		to := vars[r.Intn(len(vars))]
		if r.Intn(2) == 0 {
			from, to = to, from
		}
		g.AddTriplePattern(
			sparql.Vertex{Var: from},
			sparql.Edge{Pred: rdf.ID(6 + r.Intn(3))},
			sparql.Vertex{Var: to},
		)
	}
	return g
}

// modelCount is how many rows the model answers for q over g: for a query
// of vertex variables and constant predicates, one per homomorphism.
func modelCount(q *sparql.Graph, g *rdf.Graph) int {
	return len(model.Answer(q, g.Triples()).Rows)
}

// TestMatcherAgreesWithBruteForceProperty: the backtracking matcher's
// matches, projected onto the query's variables and made distinct, are
// the model's answer row for row — with the first edge's predicate a
// variable for every other query.
func TestMatcherAgreesWithBruteForceProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64) bool {
		g := randomData(dataSeed, 15)
		q := randomQuery(querySeed, 3)
		if querySeed%2 == 0 {
			q.Edges[0].PredVar = "p"
		}
		got := ToBindings(q, Find(q, g.Snapshot(), Options{}))
		got.Dedup()
		want := model.Answer(q, g.Triples())
		return slices.Equal(got.Vars, want.Vars) && slices.Equal(got.Rows, want.Flat())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestMatchedGraphIsSubsetProperty: every triple of the match-induced
// subgraph exists in the data graph, and re-matching over the fragment
// yields the same match count as over the full graph (fragment
// completeness — the basis of vertical fragmentation).
func TestMatchedGraphIsSubsetProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64) bool {
		g := randomData(dataSeed, 20)
		q := randomQuery(querySeed, 2)
		sub := MatchedGraph(q, g.Snapshot(), Options{})
		for _, tr := range sub.Triples() {
			if !g.Has(tr) {
				return false
			}
		}
		return Count(q, sub.Snapshot(), Options{}) == Count(q, g.Snapshot(), Options{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestVertexFilterMonotoneProperty: adding a filter can only shrink the
// match set.
func TestVertexFilterMonotoneProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64, mod uint8) bool {
		g := randomData(dataSeed, 15)
		q := randomQuery(querySeed, 3)
		all := Count(q, g.Snapshot(), Options{})
		m := int(mod%3) + 2
		filtered := Count(q, g.Snapshot(), Options{VertexFilter: func(qv int, id rdf.ID) bool {
			return int(id)%m != 0
		}})
		return filtered <= all
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
