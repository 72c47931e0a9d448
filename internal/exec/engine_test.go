package exec_test

import (
	"fmt"
	"sort"
	"testing"

	"rdffrag/internal/cluster"
	"rdffrag/internal/exec"
	"rdffrag/internal/match"
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

// centralizedAnswer evaluates q over the whole graph with the local
// matcher, the ground truth for distributed results.
func centralizedAnswer(q *sparql.Graph, g *rdf.Graph) *match.Bindings {
	ms := match.Find(q, g.Snapshot(), match.Options{})
	b := match.ToBindings(q, ms)
	if len(q.Select) > 0 {
		b = cluster.Project(b, q.Select)
	} else {
		b.Dedup()
	}
	return b
}

func bindingsEqual(a, b *match.Bindings) bool {
	if a.Len() != b.Len() || len(a.Vars) != len(b.Vars) {
		return false
	}
	key := func(bind *match.Bindings, i int) string {
		idx := make([]int, len(bind.Vars))
		order := append([]string(nil), bind.Vars...)
		sort.Strings(order)
		pos := map[string]int{}
		for j, v := range bind.Vars {
			pos[v] = j
		}
		s := ""
		for _, v := range order {
			idx = idx[:0]
			s += fmt.Sprintf("%d|", bind.Row(i)[pos[v]])
		}
		return s
	}
	am := map[string]int{}
	for i := 0; i < a.Len(); i++ {
		am[key(a, i)]++
	}
	for i := 0; i < b.Len(); i++ {
		am[key(b, i)]--
	}
	for _, v := range am {
		if v != 0 {
			return false
		}
	}
	return true
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

func TestQueryMatchesCentralizedVertical(t *testing.T) {
	e, env := newEngine(t, false)
	for _, qs := range correctnessQueries {
		q := sparql.MustParse(env.G.Dict, qs)
		got, stats, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", qs, err)
		}
		want := centralizedAnswer(q, env.G)
		if !bindingsEqual(got, want) {
			t.Errorf("query %q: distributed %d rows, centralized %d rows", qs, got.Len(), want.Len())
		}
		if stats.Subqueries < 1 {
			t.Errorf("query %q: no subqueries", qs)
		}
	}
}

func TestQueryMatchesCentralizedHorizontal(t *testing.T) {
	e, env := newEngine(t, true)
	for _, qs := range correctnessQueries {
		q := sparql.MustParse(env.G.Dict, qs)
		got, _, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", qs, err)
		}
		want := centralizedAnswer(q, env.G)
		if !bindingsEqual(got, want) {
			t.Errorf("query %q: distributed %d rows, centralized %d rows", qs, got.Len(), want.Len())
		}
	}
}

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

func TestQueryVariablePredicate(t *testing.T) {
	e, env := newEngine(t, false)
	q := sparql.MustParse(env.G.Dict, `SELECT ?p WHERE { <Person0> ?p ?y . }`)
	got, _, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	want := centralizedAnswer(q, env.G)
	if !bindingsEqual(got, want) {
		t.Errorf("var-pred query: got %d rows, want %d", got.Len(), want.Len())
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
