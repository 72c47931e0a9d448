package exec_test

import (
	"slices"
	"testing"

	"rdffrag/internal/cluster"
	"rdffrag/internal/exec"
	"rdffrag/internal/match"
	"rdffrag/internal/model"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

func newEngine(t *testing.T, horizontal bool) (*exec.Engine, *testenv.Env) {
	t.Helper()
	env, err := testenv.Build(testenv.Options{Horizontal: horizontal})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := cluster.New(4, 2)
	e, err := exec.New(c, env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	return e, env
}

// answersLikeModel reports whether got is what the model answers for q
// over g: the same header and the same rows, in Dedup order.
func answersLikeModel(got *match.Bindings, q *sparql.Graph, g *rdf.Graph) bool {
	want := model.Answer(q, g.Triples())
	return slices.Equal(got.Vars, want.Vars) && got.Len() == len(want.Rows) && slices.Equal(got.Rows, want.Flat())
}

var correctnessQueries = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`,
	`SELECT ?x ?v WHERE { ?x <viaf> ?v . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <viaf> ?v . }`,
	`SELECT ?x ?c WHERE { ?x <placeOfDeath> ?c . }`,
	`SELECT ?x WHERE { ?x <mainInterest> <Interest2> . ?x <influencedBy> ?y . ?y <mainInterest> ?j . }`,
}

// queriesMatchModel runs correctnessQueries through an engine over the
// fixture, fragmented one way or the other: each is the model's answer
// over the whole graph, the centralized one, and ran as subqueries.
func queriesMatchModel(t *testing.T, horizontal bool) {
	e, env := newEngine(t, horizontal)
	for _, qs := range correctnessQueries {
		q := sparql.MustParse(env.G.Dict, qs)
		got, stats, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", qs, err)
		}
		if !answersLikeModel(got, q, env.G) {
			t.Errorf("query %q: distributed %d rows, not the model's answer", qs, got.Len())
		}
		if stats.Subqueries < 1 {
			t.Errorf("query %q: no subqueries", qs)
		}
	}
}

func TestQueryMatchesCentralizedVertical(t *testing.T)   { queriesMatchModel(t, false) }
func TestQueryMatchesCentralizedHorizontal(t *testing.T) { queriesMatchModel(t, true) }

func TestQueryTouchesOnlyRelevantSites(t *testing.T) {
	e, env := newEngine(t, false)
	// A query matching a single 2-edge FAP should touch few sites — the
	// vertical fragmentation's locality claim.
	q := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	_, stats, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if stats.SitesTouched > 2 {
		t.Errorf("sites touched = %d, want <= 2 for a single-FAP query", stats.SitesTouched)
	}
}

func TestQueryNetworkAccounting(t *testing.T) {
	e, env := newEngine(t, false)
	e.Cluster.Net.Reset()
	q := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . }`)
	if _, _, err := e.Query(q); err != nil {
		t.Fatalf("Query: %v", err)
	}
	msgs, bytes := e.Cluster.Net.Snapshot()
	if msgs < 2 || bytes <= 0 {
		t.Errorf("net stats = %d msgs %d bytes", msgs, bytes)
	}
}

func TestQueryEmptyResult(t *testing.T) {
	e, env := newEngine(t, false)
	q := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <influencedBy> <NoSuchPerson> . }`)
	got, _, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got.Len() != 0 {
		t.Errorf("rows = %d, want 0", got.Len())
	}
}

// TestQueryUnresolvedConstant: a constant the lookup parser could not
// resolve plans to no subquery; the query answers its projected header
// with no rows and touches no site, and Explain shows no step.
func TestQueryUnresolvedConstant(t *testing.T) {
	e, env := newEngine(t, false)
	n := env.G.Dict.Len()
	q, err := sparql.NewLookupParser(env.G.Dict).Parse(`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <influencedBy> <NoSuchPerson> . }`)
	if err != nil || q.Resolved() || env.G.Dict.Len() != n {
		t.Fatalf("lookup parse: resolved %v, %d new terms, err %v", q.Resolved(), env.G.Dict.Len()-n, err)
	}
	got, stats, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Vars, []string{"x", "n"}) || got.Len() != 0 || stats.Subqueries != 0 || stats.SitesTouched != 0 {
		t.Fatalf("Query: %d rows over %v, stats %+v; want [x n], no rows, no subquery", got.Len(), got.Vars, stats)
	}
	if ex, err := e.Explain(q); err != nil || len(ex.Subqueries) != 0 {
		t.Fatalf("Explain: %v, err %v; want no step", ex, err)
	}
}

func TestQueryVariablePredicate(t *testing.T) {
	e, env := newEngine(t, false)
	q := sparql.MustParse(env.G.Dict, `SELECT ?p WHERE { <Person0> ?p ?y . }`)
	got, _, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !answersLikeModel(got, q, env.G) {
		t.Errorf("var-pred query: got %d rows, not the model's answer", got.Len())
	}
}

func TestQueryConcurrent(t *testing.T) {
	e, env := newEngine(t, false)
	q := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, _, err := e.Query(q)
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent Query: %v", err)
		}
	}
}
