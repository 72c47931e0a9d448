package match

import (
	"fmt"
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

// TestKeepCutProperty: under a random Keep, with and without a
// VertexFilter, over a graph carrying a delta, every row FindBindings
// emits is a row of the full enumeration, and the two have the same
// distinct projection onto the kept vertices' variables and the predicate
// variable, which the cut always keeps.
func TestKeepCutProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64, keepBits uint8, filtered bool) bool {
		r := rand.New(rand.NewSource(dataSeed))
		g := randomData(dataSeed, 60)
		g.SetAutoCompact(-1)
		g.Freeze()
		for i := 0; i < 10; i++ {
			tr := rdf.Triple{S: rdf.ID(r.Intn(6)), P: rdf.ID(6 + r.Intn(3)), O: rdf.ID(r.Intn(6))}
			if i%3 == 0 {
				g.Delete(tr)
			} else {
				g.Add(tr)
			}
		}
		q := randomQuery(querySeed, 4)
		if querySeed%3 == 0 {
			q.Edges[len(q.Edges)-1].PredVar = "p"
		}
		keep := VertexMask{uint64(keepBits) & (1<<len(q.Verts) - 1)}
		var kept []string // what the cut must keep: the vertices Keep marks, and any predicate variable
		for v, vert := range q.Verts {
			if keep.Has(v) {
				kept = append(kept, vert.Var)
			}
		}
		if querySeed%3 == 0 {
			kept = append(kept, "p")
		}
		var opts Options
		if filtered {
			m := 2 + int(dataSeed&1)
			opts.VertexFilter = func(qv int, id rdf.ID) bool { return int(id)%m != qv%m }
		}
		snap := g.Snapshot()
		defer snap.Close()
		full := ToBindings(q, Find(q, snap, opts))
		rows := map[string]bool{}
		w := len(full.Vars)
		for i := 0; i < full.Len(); i++ {
			rows[fmt.Sprint(full.Rows[i*w:(i+1)*w])] = true
		}
		want := project(full, kept)
		opts.Keep = keep
		got := &Bindings{Vars: full.Vars}
		FindBindings(q, snap, opts, 4, func(b *Bindings) bool {
			got.Rows = append(got.Rows, b.Rows...)
			return true
		})
		for i := 0; i < got.Len(); i++ {
			if row := got.Rows[i*w : (i+1)*w]; !rows[fmt.Sprint(row)] {
				t.Logf("%s keep %v: row %v is no match", q, kept, row)
				return false
			}
		}
		if p := project(got, kept); !slices.Equal(p.Rows, want.Rows) || p.Len() != want.Len() {
			t.Logf("%s keep %v: kept rows %v, the full enumeration's %v", q, kept, p.Rows, want.Rows)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// project returns b's distinct rows over vars, a subset of b.Vars.
func project(b *Bindings, vars []string) *Bindings {
	out := &Bindings{Vars: vars}
	w := len(b.Vars)
	for i := 0; i < b.Len(); i++ {
		row := b.Rows[i*w : (i+1)*w]
		for _, v := range vars {
			out.Rows = append(out.Rows, row[slices.Index(b.Vars, v)])
		}
		out.Nullary++
	}
	out.Dedup()
	return out
}
