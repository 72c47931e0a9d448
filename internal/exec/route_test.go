package exec

import (
	"context"
	"strings"
	"testing"

	"rdffrag/internal/cluster"
	"rdffrag/internal/plan"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

func routeEngine(t *testing.T) (*Engine, *testenv.Env) {
	t.Helper()
	env, err := testenv.Build(testenv.Options{Horizontal: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := New(cluster.New(4, 2), env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, env
}

// TestRouteUnboundSubqueryIsAnError: routing reads the relevant
// fragments off the subquery, so a pattern subquery that did not get
// them from Bind must fail the query — routed to no site it would come
// back as an empty answer.
func TestRouteUnboundSubqueryIsAnError(t *testing.T) {
	e, env := routeEngine(t)
	q := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`)
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	want, _, err := e.QueryPrepared(context.Background(), q, prep)
	if err != nil || want.Len() == 0 {
		t.Fatalf("bound plan: %d rows, err %v; want a non-empty answer", want.Len(), err)
	}

	// The same decomposition as a hand-assembled one would be: no bound
	// entries.
	for _, sq := range prep.Dcp.Subqueries {
		c := *sq
		c.Relevant = nil
		if _, err := e.routeSubquery(&c); (err != nil) != (!sq.Cold && !sq.Global) {
			t.Errorf("routeSubquery(unbound, cold=%v global=%v): err = %v", sq.Cold, sq.Global, err)
		}
		*sq = c
	}
	pl, err := plan.Optimize(prep.Dcp)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	got, _, err := e.QueryPrepared(context.Background(), q, &Prepared{Dcp: prep.Dcp, Plan: pl})
	if err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("unbound plan answered %v with err %v, want a \"not bound\" error", got, err)
	}
}

// TestRouteSubqueryAllocs: routing a bound subquery is grouping a few
// entries by site — the map and its fragment lists — not the
// generalize + canonical code + subgraph isomorphism per execution it
// used to be.
func TestRouteSubqueryAllocs(t *testing.T) {
	e, env := routeEngine(t)
	q := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`)
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for _, sq := range prep.Dcp.Subqueries {
		if sq.Cold || sq.Global {
			continue
		}
		if len(sq.Relevant) == 0 {
			t.Fatalf("subquery %s has no relevant fragment", sq.Graph)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.routeSubquery(sq); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(2 + 2*len(sq.Relevant)); allocs > limit {
			t.Errorf("routeSubquery(%s) allocates %.0f objects for %d relevant fragments, want <= %.0f", sq.Graph, allocs, len(sq.Relevant), limit)
		}
	}
}
