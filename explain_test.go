package rdffrag

import (
	"strings"
	"testing"
)

func TestExplain(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 3, MinSupport: 0.2}, phWorkload)
	ex, err := dep.Explain(`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?x <imageSkyline> ?img . }`)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(ex.Subqueries) < 2 {
		t.Fatalf("subqueries = %d, want >= 2 (pattern + cold)", len(ex.Subqueries))
	}
	kinds := map[string]int{}
	for _, st := range ex.Subqueries {
		kinds[st.Kind]++
		if st.Kind != "cold" && len(st.Fragments) == 0 {
			t.Errorf("step %q has no fragments", st.Text)
		}
		if st.EstimatedCard < 1 {
			t.Errorf("step %q card = %d", st.Text, st.EstimatedCard)
		}
	}
	if kinds["cold"] != 1 {
		t.Errorf("cold steps = %d, want 1", kinds["cold"])
	}
	if len(ex.JoinOrder) != len(ex.Subqueries) {
		t.Errorf("join order %v does not cover %d subqueries", ex.JoinOrder, len(ex.Subqueries))
	}
	out := ex.String()
	if !strings.Contains(out, "cold") || !strings.Contains(out, "fragment") {
		t.Errorf("rendering = %q", out)
	}
}

func TestExplainMatchesExecution(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 3, MinSupport: 0.2}, phWorkload)
	query := `SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> <Ethics> . }`
	ex, err := dep.Explain(query)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	res, err := dep.Query(query)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ex.Subqueries) != res.Stats.Subqueries {
		t.Errorf("explain subqueries %d != executed %d", len(ex.Subqueries), res.Stats.Subqueries)
	}
	// The explained site set must cover the sites actually touched.
	sites := map[int]bool{}
	for _, st := range ex.Subqueries {
		for _, f := range st.Fragments {
			sites[f.Site] = true
		}
	}
	if len(sites) < res.Stats.SitesTouched {
		t.Errorf("explain sites %d < executed %d", len(sites), res.Stats.SitesTouched)
	}
}

func TestQueryLimit(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	all, err := dep.Query(`SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(all.Rows) < 3 {
		t.Fatalf("need >= 3 rows for the limit test, got %d", len(all.Rows))
	}
	limited, err := dep.Query(`SELECT ?x ?n WHERE { ?x <name> ?n . } LIMIT 2`)
	if err != nil {
		t.Fatalf("Query LIMIT: %v", err)
	}
	if len(limited.Rows) != 2 {
		t.Errorf("LIMIT 2 returned %d rows", len(limited.Rows))
	}
	if _, err := dep.Query(`SELECT ?x WHERE { ?x <name> ?n . } LIMIT abc`); err == nil {
		t.Error("bad LIMIT accepted")
	}
}

// TestExplainF5Merged pins F5's explanation on the 50 000-triple WatDiv
// fixture under vertical fragmentation. Algorithm 3 decomposes it into
// three subqueries, whose fragments affinity allocation puts on site 0;
// the engine merges them into one step, matched at that site, which lists
// the three fragments once each.
func TestExplainF5Merged(t *testing.T) {
	db, _, workload := watdivDB(t, 50000, Config{Strategy: Vertical})
	dep, err := db.DeployParsed(workload)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := dep.Explain(`SELECT ?u ?p WHERE { ?u <wsdbm:likes> ?p . ?rv <rev:reviewsProduct> ?p . ?rv <rev:rating> ?g . ?u <wsdbm:follows> ?v . }`)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	const want = `decomposition cost 109116315000, plan cost 2500, join order [0]
  q0 [pattern, card≈2500] ?u <wsdbm:likes> ?p . ?rv <rev:reviewsProduct> ?p . ?rv <rev:rating> ?g . ?u <wsdbm:follows> ?v
      fragment 9 @ site 0 (4158 edges)
      fragment 30 @ site 0 (5000 edges)
      fragment 6 @ site 0 (10497 edges)
`
	if got := ex.String(); got != want {
		t.Errorf("F5 explains as\n%s\nwant\n%s", got, want)
	}
}
