package fragment_test

import (
	"maps"
	"testing"

	"rdffrag/internal/allocation"
	"rdffrag/internal/fragment"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
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
	for _, emb := range sparql.FindEmbeddings(f.Pattern.Graph, q, 0) {
		if f.MintermCompatible(q, emb.VertexMap) {
			return true
		}
	}
	return false
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
				if got := f.RelevantTo(q); got != want {
					t.Errorf("horizontal=%v: fragment %d, query %d: RelevantTo says %v, want %v", horizontal, f.ID, qi, got, want)
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

// TestRelevanceSharesShapeNotConstants: two instances of one template
// share their embeddings, found once, yet a minterm on the constant's
// position is relevant to the instance whose constant it names and not
// to the other.
func TestRelevanceSharesShapeNotConstants(t *testing.T) {
	d := rdf.NewDict()
	pg := sparql.MustParse(d, `SELECT * WHERE { ?x <name> ?n . ?x <influencedBy> ?y . }`)
	p := &mining.Pattern{Graph: pg, Code: mining.CanonicalCode(pg)}
	y := pg.AddVertex(sparql.Vertex{Var: "y"})
	f := &fragment.Fragment{Kind: fragment.HorizontalKind, Pattern: p, Minterm: &fragment.Minterm{
		Pattern:     p,
		Constraints: []fragment.Constraint{{Vertex: y, Equal: true, Value: d.Encode(rdf.NewIRI("Plato"))}},
	}}
	plato := sparql.MustParse(d, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Plato> . }`)
	kant := sparql.MustParse(d, `SELECT ?n WHERE { ?a <name> ?n . ?a <influencedBy> <Kant> . }`)
	if string(sparql.AppendShapeKey(nil, plato)) != string(sparql.AppendShapeKey(nil, kant)) {
		t.Fatal("two instances of one template have different shape keys")
	}

	var rel fragment.Relevance
	a, b := rel.Embeddings(pg, plato), rel.Embeddings(pg, kant)
	if len(a) != 1 || len(b) != 1 || &a[0] != &b[0] {
		t.Fatalf("embeddings %v and %v: want one map, found once for the shape", a, b)
	}
	if !rel.RelevantTo(f, plato) {
		t.Error("the minterm's own constant: not relevant")
	}
	if rel.RelevantTo(f, kant) {
		t.Error("a constant the minterm excludes: relevant")
	}
	f.Minterm.Constraints[0].Equal = false
	if rel.RelevantTo(f, plato) || !rel.RelevantTo(f, kant) {
		t.Error("negated minterm: relevance not inverted")
	}
}

// TestRelevanceConstantPatternKey: a pattern with a constant vertex
// embeds only where the query has that constant, so its embeddings are
// kept per constant as well as per shape — in whichever order the
// queries come.
func TestRelevanceConstantPatternKey(t *testing.T) {
	d := rdf.NewDict()
	pg := sparql.MustParse(d, `SELECT * WHERE { ?x <influencedBy> <Plato> . }`)
	plato := sparql.MustParse(d, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Plato> . }`)
	kant := sparql.MustParse(d, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Kant> . }`)
	for _, order := range [][]*sparql.Graph{{plato, kant}, {kant, plato}} {
		var rel fragment.Relevance
		for _, q := range order {
			got := len(rel.Embeddings(pg, q))
			if want := len(sparql.FindEmbeddings(pg, q, 0)); got != want {
				t.Errorf("%v: %d embeddings, want %d", q, got, want)
			}
		}
	}
	if len(sparql.FindEmbeddings(pg, plato, 0)) != 1 || len(sparql.FindEmbeddings(pg, kant, 0)) != 0 {
		t.Fatal("the fixture does not tell the constants apart")
	}
}
