package allocation_test

import (
	"slices"
	"testing"

	"rdffrag/internal/fragment"
	"rdffrag/internal/rdf"
	"rdffrag/internal/testenv"
)

// TestSiteStoresEachTripleOnce: placement leaves each site one graph, the
// union of the hot fragments allocated there, so a site stores as many
// triples as there are distinct triples across its fragments, not their
// sizes summed. Every hot fragment's Graph is its site's graph and its
// edge set is gone; the cold fragment keeps the cold graph.
func TestSiteStoresEachTripleOnce(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		env, err := testenv.Build(testenv.Options{Horizontal: horizontal})
		if err != nil {
			t.Fatal(err)
		}
		summed, stored := 0, 0
		for s, frags := range env.Alloc.Sites {
			var union []rdf.Triple
			for i, f := range env.Frag.Fragments {
				if env.Alloc.SiteOf[f.ID] == s {
					union = append(union, env.Own[i]...)
					summed += f.Size
				}
			}
			slices.SortFunc(union, rdf.CompareSPO)
			union = slices.Compact(union)
			g := env.Alloc.Graphs[s]
			if g.NumTriples() != len(union) || !slices.Equal(g.Triples(), union) {
				t.Errorf("horizontal=%v: site %d stores %d triples, its fragments hold %d distinct", horizontal, s, g.NumTriples(), len(union))
			}
			stored += g.NumTriples()
			for _, f := range frags {
				want := g
				if f.Kind == fragment.ColdKind {
					want = env.HC.Cold
				}
				if f.Graph != want || f.Edges != nil {
					t.Errorf("horizontal=%v: fragment %d at site %d is not stored in its site's graph, or kept its edge set", horizontal, f.ID, s)
				}
			}
		}
		for i, f := range env.Frag.Fragments {
			if f.Size != len(env.Own[i]) {
				t.Errorf("horizontal=%v: fragment %d has size %d and %d triples of its own", horizontal, f.ID, f.Size, len(env.Own[i]))
			}
		}
		if stored >= summed {
			t.Errorf("horizontal=%v: the sites store %d triples of the %d their fragments hold: no fragments overlap at a site", horizontal, stored, summed)
		}
	}
}
