package fragment_test

import (
	"maps"
	"testing"

	"rdffrag/internal/allocation"
	"rdffrag/internal/fragment"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

// relevantUncached is RelevantTo as it reads in the paper: the cold
// fragment is relevant to every query, a hot one when some embedding of
// its pattern in q leaves its minterm satisfiable by q's constants.
func relevantUncached(f *fragment.Fragment, q *sparql.Graph) bool {
	if f.Kind == fragment.ColdKind {
		return true
	}
	var maps [][]int
	for _, emb := range sparql.FindEmbeddings(f.Pattern.Graph, q, 0) {
		maps = append(maps, emb.VertexMap)
	}
	return f.CompatibleWithAny(q, maps)
}

// TestRelevanceMatchesUncached: on the vertical and the horizontal test
// deployment, a Relevance kept across every fragment and workload query
// answers what the uncached check answers, and so does the affinity
// built from it.
func TestRelevanceMatchesUncached(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		env, err := testenv.Build(testenv.Options{Horizontal: horizontal})
		if err != nil {
			t.Fatal(err)
		}
		var rel fragment.Relevance
		for _, f := range env.Frag.All() {
			for qi, q := range env.Workload {
				want := relevantUncached(f, q)
				if got := rel.RelevantTo(f, q); got != want {
					t.Errorf("horizontal=%v: fragment %d, query %d: Relevance says %v, want %v", horizontal, f.ID, qi, got, want)
				}
			}
		}

		frags := env.Frag.Fragments
		want := make(map[[2]int]int)
		for _, q := range env.Workload {
			var touched []int
			for i, f := range frags {
				if relevantUncached(f, q) {
					touched = append(touched, i)
				}
			}
			for a := range touched {
				for _, b := range touched[a+1:] {
					want[[2]int{touched[a], b}]++
				}
			}
		}
		if got := allocation.Affinity(frags, env.Workload); !maps.Equal(got, want) {
			t.Errorf("horizontal=%v: Affinity %v, want %v", horizontal, got, want)
		}
		touchedAny := false
		for _, f := range frags {
			for _, q := range env.Workload {
				touchedAny = touchedAny || relevantUncached(f, q)
			}
		}
		if !touchedAny {
			t.Errorf("horizontal=%v: no workload query touches any fragment", horizontal)
		}
	}
}
