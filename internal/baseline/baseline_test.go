package baseline_test

import (
	"testing"

	"rdffrag/internal/baseline"
	"rdffrag/internal/cluster"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

func TestSHAPECoversGraph(t *testing.T) {
	g := testenv.Graph(30)
	p := baseline.BuildSHAPE(g, 4)
	if len(p.SiteGraphs) != 4 {
		t.Fatalf("sites = %d", len(p.SiteGraphs))
	}
	// Every triple must be stored somewhere (actually at 1-2 sites).
	for _, tr := range g.Triples() {
		found := 0
		for _, sg := range p.SiteGraphs {
			if sg.Has(tr) {
				found++
			}
		}
		if found < 1 || found > 2 {
			t.Fatalf("triple stored at %d sites", found)
		}
	}
	r := p.Redundancy(g)
	if r < 1.0 || r > 2.0 {
		t.Errorf("SHAPE redundancy = %f, want in (1,2]", r)
	}
}

func TestWARPCoversGraph(t *testing.T) {
	g := testenv.Graph(30)
	w := testenv.Workload(g.Dict)
	pats := (&mining.Miner{MinSup: 3}).Mine(w)
	p := baseline.BuildWARP(g, pats, 4)
	for _, tr := range g.Triples() {
		found := false
		for _, sg := range p.SiteGraphs {
			if sg.Has(tr) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("triple %s lost by WARP", g.TripleString(tr))
		}
	}
	r := p.Redundancy(g)
	if r < 1.0 {
		t.Errorf("WARP redundancy = %f < 1", r)
	}
}

func TestWARPLessRedundantThanSHAPE(t *testing.T) {
	// On a sparse graph WARP's min-cut keeps redundancy near 1 while
	// SHAPE duplicates every subject-object edge (Table 1's shape).
	g := testenv.Graph(60)
	w := testenv.Workload(g.Dict)
	pats := (&mining.Miner{MinSup: 5}).Mine(w)
	shape := baseline.BuildSHAPE(g, 4)
	warp := baseline.BuildWARP(g, pats, 4)
	if warp.Redundancy(g) >= shape.Redundancy(g) {
		t.Errorf("WARP redundancy %f >= SHAPE %f", warp.Redundancy(g), shape.Redundancy(g))
	}
}

func centralized(q *sparql.Graph, env *testenv.Env) *match.Bindings {
	ms := match.Find(q, env.G.Snapshot(), match.Options{})
	b := match.ToBindings(q, ms)
	if len(q.Select) > 0 {
		b = cluster.Project(b, q.Select)
	} else {
		b.Dedup()
	}
	return b
}

var queries = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`,
	`SELECT ?x ?v WHERE { ?x <viaf> ?v . }`,
}

func TestSHAPEEngineCorrect(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := cluster.New(4, 2)
	p := baseline.BuildSHAPE(env.G, 4)
	e, err := baseline.NewEngine(c, p, nil, env.G)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, qs := range queries {
		q := sparql.MustParse(env.G.Dict, qs)
		got, stats, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", qs, err)
		}
		want := centralized(q, env)
		if got.Len() != want.Len() {
			t.Errorf("query %q: got %d rows, want %d", qs, got.Len(), want.Len())
		}
		if stats.SitesTouched != 4 {
			t.Errorf("SHAPE must touch all sites, got %d", stats.SitesTouched)
		}
	}
}

func TestWARPEngineCorrect(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pats := (&mining.Miner{MinSup: 3}).Mine(env.Workload)
	c := cluster.New(4, 2)
	p := baseline.BuildWARP(env.G, pats, 4)
	e, err := baseline.NewEngine(c, p, pats, env.G)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, qs := range queries {
		q := sparql.MustParse(env.G.Dict, qs)
		got, _, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", qs, err)
		}
		want := centralized(q, env)
		if got.Len() != want.Len() {
			t.Errorf("query %q: got %d rows, want %d", qs, got.Len(), want.Len())
		}
	}
}

func TestEngineSiteMismatch(t *testing.T) {
	g := testenv.Graph(10)
	p := baseline.BuildSHAPE(g, 3)
	c := cluster.New(4, 1)
	if _, err := baseline.NewEngine(c, p, nil, g); err == nil {
		t.Error("site-count mismatch accepted")
	}
}
