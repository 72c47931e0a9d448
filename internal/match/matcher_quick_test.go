package match

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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

// bruteForceCount enumerates all variable assignments exhaustively — the
// oracle the backtracking matcher must agree with.
func bruteForceCount(q *sparql.Graph, g *rdf.Graph) int {
	// The graph as a set and nothing else: no index is asked anything.
	has := map[rdf.Triple]bool{}
	var domain []rdf.ID
	for _, t := range g.Triples() {
		has[t] = true
		domain = append(domain, t.S, t.O)
	}
	slices.Sort(domain)
	domain = slices.Compact(domain)
	// Collect vertex variables; constants are fixed.
	varIdx := []int{}
	for i, v := range q.Verts {
		if v.IsVar() {
			varIdx = append(varIdx, i)
		}
	}
	assign := make([]rdf.ID, len(q.Verts))
	for i, v := range q.Verts {
		if !v.IsVar() {
			assign[i] = v.Term
		}
	}
	count := 0
	var rec func(k int)
	rec = func(k int) {
		if k == len(varIdx) {
			// Verify every edge exists (counting multiplicity of edge
			// mapping is 1 since data edges are a set).
			for _, e := range q.Edges {
				if e.IsPredVar() {
					panic("oracle does not support var preds")
				}
				if !has[rdf.Triple{S: assign[e.From], P: e.Pred, O: assign[e.To]}] {
					return
				}
			}
			count++
			return
		}
		for _, d := range domain {
			assign[varIdx[k]] = d
			rec(k + 1)
		}
	}
	rec(0)
	return count
}

// TestMatcherAgreesWithBruteForceProperty: the backtracking matcher and
// the exhaustive oracle count the same homomorphisms. Note the matcher
// counts per-edge-mapping; with set semantics on data triples and constant
// predicates, distinct vertex assignments correspond 1:1 to matches, so
// we compare distinct vertex bindings.
func TestMatcherAgreesWithBruteForceProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64) bool {
		g := randomData(dataSeed, 15)
		q := randomQuery(querySeed, 3)
		ms := Find(q, g.Snapshot(), Options{})
		seen := map[string]bool{}
		for _, m := range ms {
			key := ""
			for _, id := range m.Vertex {
				key += string(rune(id)) + "|"
			}
			seen[key] = true
		}
		return len(seen) == bruteForceCount(q, g)
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
