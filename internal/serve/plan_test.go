package serve

import (
	"testing"

	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/exec"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

// TestPlanCachePutTwice: two queries of one shape that miss together both
// put it; the later shape replaces the earlier and the cache holds one
// entry. Concurrent tests reach this only when two misses race, so the
// path is pinned here.
func TestPlanCachePutTwice(t *testing.T) {
	c := newPlanCache(2)
	first, second := &decompose.Shape{}, &decompose.Shape{}
	c.put("k", first)
	c.put("k", second)
	if got, ok := c.get([]byte("k")); !ok || got != second || c.ll.Len() != 1 {
		t.Fatalf("after two puts of one key: %p (hit %v), %d entries; want the second shape, one entry", got, ok, c.ll.Len())
	}
}

// TestShapeKey pins what the plan cache keys on: queries that differ
// only in constant values or variable names share a key, and every
// structural difference — down to which end of a triple a constant sits
// at — gets its own.
func TestShapeKey(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	key := func(text string) string {
		return string(sparql.AppendShapeKey(nil, sparql.MustParse(env.G.Dict, text)))
	}
	base := `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`
	for _, same := range []string{
		`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person5> . }`,
		`SELECT ?n WHERE { ?a <name> ?b . ?a <influencedBy> <Person1> . } LIMIT 3`,
		`SELECT * WHERE { ?x <name> ?n . ?x <influencedBy> <NobodyTheGraphKnows> . }`,
	} {
		if key(same) != key(base) {
			t.Errorf("%q and %q have different keys", base, same)
		}
	}
	distinct := []string{
		base,
		`SELECT ?x WHERE { ?x <influencedBy> <Person3> . ?x <name> ?n . }`,                // reordered
		`SELECT ?x WHERE { ?x <name> ?n . <Person3> <influencedBy> ?x . }`,                // constant at the other end
		`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> ?y . }`,                       // variable for the constant
		`SELECT ?x WHERE { ?x <name> ?n . ?n <influencedBy> <Person3> . }`,                // other join vertex
		`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> <Person3> . }`,                // other predicate
		`SELECT ?x WHERE { ?x <name> ?n . ?x ?p <Person3> . }`,                            // predicate variable
		`SELECT ?x WHERE { ?x <name> ?n . }`,                                              // fewer edges
		`SELECT ?x WHERE { <Person1> <influencedBy> ?x . ?x <influencedBy> <Person1> . }`, // one constant twice
		`SELECT ?x WHERE { <Person1> <influencedBy> ?x . ?x <influencedBy> <Person2> . }`, // two constants
		`SELECT ?x WHERE { ?x ?p ?y . ?y ?p ?z . }`,                                       // one predicate variable twice
		`SELECT ?x WHERE { ?x ?p ?y . ?y ?q ?z . }`,                                       // two predicate variables
	}
	seen := map[string]string{}
	for _, text := range distinct {
		k := key(text)
		if other, dup := seen[k]; dup {
			t.Errorf("%q and %q share a key", other, text)
		}
		seen[k] = text
	}
}

// TestPlanShapeHitAllocs guards the cost this cache exists to remove: a
// star query with two constants (WatDiv S1) whose shape is cached plans
// in a few dozen small allocations — the bound subqueries and the plan —
// where running every selected pattern's subgraph isomorphism against it
// took several hundred.
func TestPlanShapeHitAllocs(t *testing.T) {
	env, ds, err := testenv.WatDiv(6000, true)
	if err != nil {
		t.Fatalf("testenv.WatDiv: %v", err)
	}
	engine, err := exec.New(cluster.New(4, 2), env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	srv := New(engine, Config{Workers: 1})
	defer srv.Close()

	var qs []*sparql.Graph
	for i := 0; i < 8; i++ {
		qs = append(qs, sparql.MustParse(env.G.Dict, `SELECT ?p ?c WHERE { ?p <rdf:type> <`+ds.Categories[i%len(ds.Categories)]+
			`> . ?p <sorg:caption> ?c . ?p <mfgr:producedBy> <`+ds.Retailers[i%len(ds.Retailers)]+`> . }`))
	}
	if _, hit, err := srv.plan(qs[0]); err != nil || hit {
		t.Fatalf("first plan: hit=%v err=%v, want a miss", hit, err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		prep, hit, err := srv.plan(qs[i%len(qs)])
		if err != nil || !hit || len(prep.Dcp.Subqueries) == 0 {
			t.Fatalf("plan: hit=%v err=%v", hit, err)
		}
	})
	t.Logf("shape-hit plan: %.0f allocs", allocs)
	if allocs > 40 {
		t.Errorf("a shape-hit plan allocates %.0f objects, want <= 40", allocs)
	}
}
