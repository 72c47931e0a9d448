package mining

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// randomPattern builds a small random connected query graph from a seed:
// up to maxEdges edges over a small vertex/predicate pool.
func randomPattern(seed int64, maxEdges int) *sparql.Graph {
	r := rand.New(rand.NewSource(seed))
	n := 1 + r.Intn(maxEdges)
	g := sparql.NewGraph()
	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		// Keep it connected: after the first edge, reuse a previous vertex.
		var from, to string
		if i == 0 {
			from, to = names[r.Intn(3)], names[r.Intn(3)]
		} else {
			prev := g.Verts[r.Intn(len(g.Verts))].Var
			from = prev
			to = names[r.Intn(len(names))]
			if r.Intn(2) == 0 {
				from, to = to, from
			}
		}
		g.AddTriplePattern(
			sparql.Vertex{Var: from},
			sparql.Edge{Pred: rdf.ID(r.Intn(4))},
			sparql.Vertex{Var: to},
		)
	}
	return g
}

// renameAndShuffle produces an isomorphic copy: variables renamed, edges
// reordered.
func renameAndShuffle(g *sparql.Graph, seed int64) *sparql.Graph {
	r := rand.New(rand.NewSource(seed))
	rename := map[string]string{}
	fresh := 0
	nameOf := func(v sparql.Vertex) sparql.Vertex {
		if !v.IsVar() {
			return v
		}
		n, ok := rename[v.Var]
		if !ok {
			n = string(rune('p' + fresh))
			fresh++
			rename[v.Var] = n
		}
		return sparql.Vertex{Var: n}
	}
	order := r.Perm(len(g.Edges))
	out := sparql.NewGraph()
	for _, ei := range order {
		e := g.Edges[ei]
		out.AddTriplePattern(nameOf(g.Verts[e.From]), sparql.Edge{Pred: e.Pred, PredVar: e.PredVar}, nameOf(g.Verts[e.To]))
	}
	return out
}

// TestCanonicalCodeIsomorphismInvariantProperty: isomorphic graphs (by
// construction) always share a canonical code.
func TestCanonicalCodeIsomorphismInvariantProperty(t *testing.T) {
	f := func(seed int64, shuffleSeed int64) bool {
		g := randomPattern(seed, 5)
		h := renameAndShuffle(g, shuffleSeed)
		return CanonicalCode(g) == CanonicalCode(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalCodeSeparatesNonEmbeddableProperty: if two graphs have the
// same code, they must mutually embed (isomorphism witness).
func TestCanonicalCodeSeparatesNonEmbeddableProperty(t *testing.T) {
	f := func(s1, s2 int64) bool {
		g := randomPattern(s1, 4)
		h := randomPattern(s2, 4)
		if CanonicalCode(g) != CanonicalCode(h) {
			return true // nothing to check
		}
		return sparql.Embeds(g, h) && sparql.Embeds(h, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMineSupportsAreExactProperty: every mined pattern's reported support
// equals a direct recount over the normalized workload.
func TestMineSupportsAreExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var w []*sparql.Graph
		for i := 0; i < 12; i++ {
			w = append(w, randomPattern(int64(r.Int31()), 3))
		}
		ps := (&Miner{MinSup: 3}).Mine(w)
		for _, p := range ps {
			recount := 0
			for _, q := range w {
				if sparql.Embeds(p.Graph, q.Generalize()) {
					recount++
				}
			}
			if recount != p.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
