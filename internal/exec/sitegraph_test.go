package exec_test

import (
	"slices"
	"testing"

	"rdffrag/internal/allocation"
	"rdffrag/internal/cluster"
	"rdffrag/internal/dict"
	"rdffrag/internal/exec"
	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// TestHorizontalDuplicateAcrossSites: a site stores one graph, the union
// of its fragments, so it finds a match of a minterm fragment placed at
// another site when it stores that match's triples for fragments of its
// own. Here the minterm fragments of one pattern, ?y = <A> and ?y ≠ <A>,
// sit at sites 0 and 1, and site 0 also stores the one-edge fragments of
// both of the pattern's properties: the subquery is routed to both sites,
// and both find the ?y ≠ <A> matches. No minterm filter is needed: every
// match either site finds is a match on the data, and the final dedup
// answers each once, as the model does.
func TestHorizontalDuplicateAcrossSites(t *testing.T) {
	d := rdf.NewDict()
	var ts []rdf.Triple
	for i, infl := range []string{"A", "B", "A", "B"} {
		x := d.Encode(rdf.NewIRI("P" + string(rune('0'+i))))
		ts = append(ts,
			rdf.Triple{S: x, P: d.Encode(rdf.NewIRI("name")), O: d.Encode(rdf.NewLiteral("n" + string(rune('0'+i))))},
			rdf.Triple{S: x, P: d.Encode(rdf.NewIRI("influencedBy")), O: d.Encode(rdf.NewIRI(infl))},
			rdf.Triple{S: x, P: d.Encode(rdf.NewIRI("mainInterest")), O: d.Encode(rdf.NewIRI("Ethics"))})
	}
	g := rdf.NewFrozen(d, ts)
	const text = `SELECT ?x ?y WHERE { ?x <name> ?n . ?x <influencedBy> ?y . }`
	workload := []*sparql.Graph{sparql.MustParse(d, text), sparql.MustParse(d, `SELECT ?x WHERE { ?x <mainInterest> ?i . }`)}
	hc := fragment.SplitHotCold(g, workload, 1)

	pattern := func(q string) *mining.Pattern {
		pg := sparql.MustParse(d, q)
		return &mining.Pattern{Graph: pg, Code: mining.CanonicalCode(pg)}
	}
	both := pattern(`SELECT * WHERE { ?x <name> ?n . ?x <influencedBy> ?y . }`)
	y := slices.IndexFunc(both.Graph.Verts, func(v sparql.Vertex) bool { return v.Var == "y" })
	onA := func(equal bool) *fragment.Minterm {
		return &fragment.Minterm{Pattern: both, Constraints: []fragment.Constraint{{Vertex: y, Equal: equal, Value: d.Encode(rdf.NewIRI("A"))}}}
	}
	hot := hc.Hot.Snapshot()
	defer hot.Close()
	fr := &fragment.Fragmentation{Kind: fragment.HorizontalKind, Hot: hc.Hot}
	// Round robin over two sites deals the even positions to site 0.
	for i, spec := range []struct {
		p  *mining.Pattern
		mt *fragment.Minterm
	}{
		{both, onA(true)},
		{both, onA(false)},
		{pattern(`SELECT * WHERE { ?x <name> ?n . }`), nil},
		{pattern(`SELECT * WHERE { ?x <mainInterest> ?i . }`), nil},
		{pattern(`SELECT * WHERE { ?x <influencedBy> ?y . }`), nil},
	} {
		var opts match.Options
		if spec.mt != nil {
			opts.VertexFilter = spec.mt.VertexFilter()
		}
		edges := match.MatchedEdges(spec.p.Graph, hot, opts)
		fr.Fragments = append(fr.Fragments, &fragment.Fragment{
			ID: i, Kind: fragment.HorizontalKind, Pattern: spec.p, Minterm: spec.mt, Size: edges.Len(), Edges: edges,
		})
	}
	fr.Cold = &fragment.Fragment{ID: len(fr.Fragments), Kind: fragment.ColdKind, Graph: hc.Cold}
	alloc := allocation.RoundRobin(fr, 2)
	e, err := exec.New(cluster.New(2, 1), dict.Build(fr, alloc, workload), fr, alloc, hc)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}

	q := sparql.MustParse(d, text)
	got, stats, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !answersLikeModel(got, q, g) {
		t.Errorf("distributed %d rows, not the model's answer", got.Len())
	}
	if stats.Subqueries != 1 || stats.SitesTouched != 2 || stats.IntermediateRows != got.Len()+2 {
		t.Errorf("setup: %d subqueries over %d sites shipped %d rows for %d answers; want one subquery at both sites, the two ?y ≠ <A> matches found twice",
			stats.Subqueries, stats.SitesTouched, stats.IntermediateRows, got.Len())
	}
}
