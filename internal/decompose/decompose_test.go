package decompose_test

import (
	"testing"

	"rdffrag/internal/decompose"
	"rdffrag/internal/fragment"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

func newDecomposer(t *testing.T, horizontal bool) (*decompose.Decomposer, *testenv.Env) {
	t.Helper()
	env, err := testenv.Build(testenv.Options{Horizontal: horizontal})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return &decompose.Decomposer{Dict: env.Dict, HC: env.HC}, env
}

func TestDecomposeCoversAllEdges(t *testing.T) {
	d, env := newDecomposer(t, false)
	q := sparql.MustParse(env.G.Dict,
		`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?x <placeOfDeath> ?c . ?c <country> ?k . }`)
	dcp, err := d.Decompose(q)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	covered := make(map[int]bool)
	for _, sq := range dcp.Subqueries {
		for _, e := range sq.EdgeIdx {
			if covered[e] {
				t.Errorf("edge %d covered twice", e)
			}
			covered[e] = true
		}
	}
	if len(covered) != q.NumEdges() {
		t.Errorf("covered %d of %d edges", len(covered), q.NumEdges())
	}
}

func TestDecomposePrefersLargerPatterns(t *testing.T) {
	d, env := newDecomposer(t, false)
	// name+mainInterest is a mined 2-edge pattern: the decomposition
	// should use it as one subquery rather than two single edges.
	q := sparql.MustParse(env.G.Dict,
		`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	dcp, err := d.Decompose(q)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(dcp.Subqueries) != 1 {
		t.Fatalf("subqueries = %d, want 1 (whole query is a FAP)", len(dcp.Subqueries))
	}
	if dcp.Subqueries[0].PatternCode == "" {
		t.Error("subquery not mapped to a pattern")
	}
}

func TestDecomposeColdEdges(t *testing.T) {
	d, env := newDecomposer(t, false)
	q := sparql.MustParse(env.G.Dict,
		`SELECT ?x WHERE { ?x <name> ?n . ?x <viaf> ?v . }`)
	dcp, err := d.Decompose(q)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	var coldCount, hotCount int
	for _, sq := range dcp.Subqueries {
		if sq.Cold {
			coldCount++
			for _, ei := range sq.EdgeIdx {
				e := q.Edges[ei]
				if env.HC.FreqProps[e.Pred] {
					t.Error("hot edge inside cold subquery")
				}
			}
		} else {
			hotCount++
		}
	}
	if coldCount != 1 || hotCount != 1 {
		t.Errorf("cold=%d hot=%d, want 1/1", coldCount, hotCount)
	}
}

func TestDecomposeConnectedColdComponents(t *testing.T) {
	d, env := newDecomposer(t, false)
	// Two disconnected cold parts must become two cold subqueries.
	q := sparql.MustParse(env.G.Dict,
		`SELECT * WHERE { ?x <viaf> ?v . ?y <wappen> ?w . ?x <name> ?n . ?y <postalCode> ?z . }`)
	dcp, err := d.Decompose(q)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	cold := 0
	for _, sq := range dcp.Subqueries {
		if sq.Cold {
			cold++
			if len(sq.Graph.ConnectedComponents()) != 1 {
				t.Error("cold subquery not connected")
			}
		}
	}
	if cold != 2 {
		t.Errorf("cold subqueries = %d, want 2", cold)
	}
}

func TestDecomposeVariablePredicateGlobal(t *testing.T) {
	d, env := newDecomposer(t, false)
	q := sparql.MustParse(env.G.Dict, `SELECT * WHERE { ?x ?p ?y . ?x <name> ?n . }`)
	dcp, err := d.Decompose(q)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	global := 0
	for _, sq := range dcp.Subqueries {
		if sq.Global {
			global++
		}
	}
	if global != 1 {
		t.Errorf("global subqueries = %d, want 1", global)
	}
}

func TestDecomposeCostMinimal(t *testing.T) {
	d, env := newDecomposer(t, false)
	q := sparql.MustParse(env.G.Dict,
		`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?x <influencedBy> ?y . }`)
	dcp, err := d.Decompose(q)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	// Cost must equal the product of subquery cards.
	prod := 1.0
	for _, sq := range dcp.Subqueries {
		prod *= float64(sq.Card)
	}
	if dcp.Cost != prod {
		t.Errorf("cost %f != product %f", dcp.Cost, prod)
	}
	// And the single-edge decomposition must never be cheaper.
	singleProd := 1.0
	for i := range q.Edges {
		sub := q.EdgeSubgraph([]int{i})
		c, ok := env.Dict.EstimateCard(sub)
		if !ok {
			t.Fatalf("edge %d unmapped", i)
		}
		singleProd *= float64(c)
	}
	if dcp.Cost > singleProd {
		t.Errorf("chosen cost %f worse than naive single-edge cost %f", dcp.Cost, singleProd)
	}
}

func TestDecomposeEmptyQuery(t *testing.T) {
	d, _ := newDecomposer(t, false)
	if _, err := d.Decompose(sparql.NewGraph()); err == nil {
		t.Error("empty query accepted")
	}
}

func TestDecomposeHorizontal(t *testing.T) {
	d, env := newDecomposer(t, true)
	q := sparql.MustParse(env.G.Dict,
		`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person0> . }`)
	dcp, err := d.Decompose(q)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(dcp.Subqueries) == 0 {
		t.Fatal("no subqueries")
	}
	_ = fragment.HorizontalKind
}
