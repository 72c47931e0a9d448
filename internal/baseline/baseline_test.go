package baseline_test

import (
	"slices"
	"testing"

	"rdffrag/internal/baseline"
	"rdffrag/internal/cluster"
	"rdffrag/internal/mining"
	"rdffrag/internal/model"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
	"rdffrag/internal/watdiv"
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

var queries = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`,
	`SELECT ?x ?v WHERE { ?x <viaf> ?v . }`,
}

// checkEngine runs qs through e and requires the model's answer over g,
// row for row in Dedup order, from every one of the m sites.
func checkEngine(t *testing.T, e *baseline.Engine, g *rdf.Graph, qs []*sparql.Graph, m int) {
	t.Helper()
	for _, q := range qs {
		got, stats, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
		want := model.Answer(q, g.Triples())
		if !slices.Equal(got.Vars, want.Vars) || got.Len() != len(want.Rows) || !slices.Equal(got.Rows, want.Flat()) {
			t.Errorf("query %s: got %v with %d rows, want %v with %d", q, got.Vars, got.Len(), want.Vars, len(want.Rows))
		}
		if stats.SitesTouched != m {
			t.Errorf("query %s touched %d sites, want all %d", q, stats.SitesTouched, m)
		}
	}
}

// philosopherQueries parses the hand-written queries over env's graph.
func philosopherQueries(env *testenv.Env) []*sparql.Graph {
	var qs []*sparql.Graph
	for _, s := range queries {
		qs = append(qs, sparql.MustParse(env.G.Dict, s))
	}
	return qs
}

// watDiv generates a small WatDiv-like graph, its workload, and every
// tenth workload query as a seeded sample of the twenty templates.
func watDiv(t *testing.T) (*rdf.Graph, []*sparql.Graph, []*sparql.Graph) {
	t.Helper()
	ds := watdiv.Generate(watdiv.Options{Triples: 3000, Seed: 7})
	log, err := ds.GenerateWorkload(300, 7)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	var sample []*sparql.Graph
	for i := 0; i < len(log); i += 10 {
		sample = append(sample, log[i])
	}
	return ds.Graph, log, sample
}

func TestSHAPEEngineCorrect(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := baseline.NewEngine(cluster.New(4, 2), baseline.BuildSHAPE(env.G, 4), nil, env.G)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	checkEngine(t, e, env.G, philosopherQueries(env), 4)

	g, _, sample := watDiv(t)
	e, err = baseline.NewEngine(cluster.New(4, 2), baseline.BuildSHAPE(g, 4), nil, g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	checkEngine(t, e, g, sample, 4)
}

func TestWARPEngineCorrect(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pats := (&mining.Miner{MinSup: 3}).Mine(env.Workload)
	e, err := baseline.NewEngine(cluster.New(4, 2), baseline.BuildWARP(env.G, pats, 4), pats, env.G)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	checkEngine(t, e, env.G, philosopherQueries(env), 4)

	g, log, sample := watDiv(t)
	pats = (&mining.Miner{MinSup: 3}).Mine(log)
	e, err = baseline.NewEngine(cluster.New(4, 2), baseline.BuildWARP(g, pats, 4), pats, g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	checkEngine(t, e, g, sample, 4)
}

func TestEngineSiteMismatch(t *testing.T) {
	g := testenv.Graph(10)
	p := baseline.BuildSHAPE(g, 3)
	c := cluster.New(4, 1)
	if _, err := baseline.NewEngine(c, p, nil, g); err == nil {
		t.Error("site-count mismatch accepted")
	}
}
