package sparql

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rdffrag/internal/rdf"
)

func TestParseBasicSelect(t *testing.T) {
	d := rdf.NewDict()
	q, err := NewParser(d).Parse(`
		SELECT ?x ?n WHERE {
			?x <http://ex/name> ?n .
			?x <http://ex/influencedBy> <http://ex/Aristotle> .
		}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", q.NumEdges())
	}
	if len(q.Verts) != 3 {
		t.Fatalf("verts = %d, want 3 (?x ?n Aristotle)", len(q.Verts))
	}
	if len(q.Select) != 2 || q.Select[0] != "x" || q.Select[1] != "n" {
		t.Errorf("Select = %v", q.Select)
	}
	// ?x must be shared between the two patterns.
	if q.Edges[0].From != q.Edges[1].From {
		t.Errorf("shared variable not merged: %+v", q.Edges)
	}
	// Constant object must be a non-var vertex.
	obj := q.Verts[q.Edges[1].To]
	if obj.IsVar() || d.Decode(obj.Term).Value != "http://ex/Aristotle" {
		t.Errorf("object vertex = %+v", obj)
	}
}

func TestParsePrefixes(t *testing.T) {
	d := rdf.NewDict()
	q, err := NewParser(d).Parse(`
		PREFIX ex: <http://ex/>
		SELECT * WHERE { ?x ex:name "Aristotle" . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	e := q.Edges[0]
	if d.Decode(e.Pred).Value != "http://ex/name" {
		t.Errorf("pred = %v", d.Decode(e.Pred))
	}
	o := q.Verts[e.To]
	if o.IsVar() || d.Decode(o.Term) != rdf.NewLiteral("Aristotle") {
		t.Errorf("object = %+v", o)
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT ?x WHERE { ?x <p> ?a ; <q> ?b , ?c . }`)
	if q.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", q.NumEdges())
	}
	for _, e := range q.Edges[1:] {
		if e.From != q.Edges[0].From {
			t.Errorf("subject not shared across ';' list")
		}
	}
}

func TestParseFilterSkipped(t *testing.T) {
	d := rdf.NewDict()
	q, err := NewParser(d).Parse(`
		SELECT ?x WHERE {
			?x <p> ?y .
			FILTER(?y > 3 && (?y < 10))
			?y <q> ?z .
		}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2 (FILTER ignored)", q.NumEdges())
	}
}

func TestParseVariablePredicate(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT ?p WHERE { <a> ?p <b> . }`)
	if !q.Edges[0].IsPredVar() || q.Edges[0].PredVar != "p" {
		t.Errorf("edge = %+v", q.Edges[0])
	}
}

func TestParseAKeyword(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT ?x WHERE { ?x a <http://ex/Person> . }`)
	if !strings.Contains(d.Decode(q.Edges[0].Pred).Value, "rdf-syntax-ns#type") {
		t.Errorf("pred = %v", d.Decode(q.Edges[0].Pred))
	}
}

func TestParseTypedAndTaggedLiterals(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT ?x WHERE { ?x <p> "42"^^<http://www.w3.org/2001/XMLSchema#int> . ?x <q> "hi"@en . ?x <r> 7 . }`)
	if q.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", q.NumEdges())
	}
}

func TestParseErrors(t *testing.T) {
	d := rdf.NewDict()
	for _, bad := range []string{
		`SELECT ?x WHERE { ?x <p> ?y`,                // unterminated BGP
		`SELECT ?x WHERE { ?x <p ?y . }`,             // unterminated IRI
		`SELECT ?x WHERE { OPTIONAL { ?x <p> ?y } }`, // unsupported
		`ASK { ?x <p> ?y }`,                          // not SELECT
		`SELECT ?x WHERE { ?x ex:name ?y . }`,        // undeclared prefix
	} {
		if _, err := NewParser(d).Parse(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestGeneralize(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT ?x WHERE { ?x <name> "Aristotle" . ?x <mainInterest> <Ethics> . }`)
	g := q.Generalize()
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	for _, v := range g.Verts {
		if !v.IsVar() {
			t.Errorf("constant survived generalization: %+v", v)
		}
	}
	// Predicates must be preserved.
	for i, e := range g.Edges {
		if e.Pred != q.Edges[i].Pred {
			t.Errorf("edge %d: predicate %d, want %d", i, e.Pred, q.Edges[i].Pred)
		}
	}
}

// TestGeneralizeKeepsVerticesApart: the fresh variable standing in for a
// constant must not take a name the query already uses, or the two
// vertices merge and the generalized graph is another shape.
func TestGeneralizeKeepsVerticesApart(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?g0 <knows> <Plato> . ?g1 <knows> ?g0 . <Plato> <name> ?g2 . }`)
	g := q.Generalize()
	if len(g.Verts) != len(q.Verts) || len(g.Edges) != len(q.Edges) {
		t.Fatalf("generalized to %d vertices / %d edges, want %d / %d", len(g.Verts), len(g.Edges), len(q.Verts), len(q.Edges))
	}
	for i, e := range g.Edges {
		if e.From != q.Edges[i].From || e.To != q.Edges[i].To {
			t.Errorf("edge %d joins %d→%d, want %d→%d", i, e.From, e.To, q.Edges[i].From, q.Edges[i].To)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?x <p> ?y . ?a <q> ?b . ?y <r> ?z . }`)
	comps := q.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != 3 {
		t.Errorf("component edges sum = %d, want 3", total)
	}
}

func TestEdgeSubgraph(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?x . }`)
	sub := q.EdgeSubgraph([]int{0, 1})
	if sub.NumEdges() != 2 || len(sub.Verts) != 3 {
		t.Fatalf("sub = %d edges %d verts", sub.NumEdges(), len(sub.Verts))
	}
	if len(sub.ConnectedComponents()) != 1 {
		t.Error("subgraph should be connected")
	}
}

// copiedSubgraph is EdgeSubgraph without its shared whole-graph path:
// vertices numbered by first use, subject before object, in fresh arrays.
func copiedSubgraph(g *Graph, edgeIdx []int) *Graph {
	sub := &Graph{}
	remap := map[int]int{}
	vert := func(v int) int {
		if _, ok := remap[v]; !ok {
			remap[v] = len(sub.Verts)
			sub.Verts = append(sub.Verts, g.Verts[v])
		}
		return remap[v]
	}
	for _, ei := range edgeIdx {
		e := g.Edges[ei]
		from := vert(e.From)
		sub.Edges = append(sub.Edges, Edge{From: from, To: vert(e.To), Pred: e.Pred, PredVar: e.PredVar})
	}
	return sub
}

// TestEdgeSubgraphSharesWholeGraph: for every subset of every query's
// edges, in and out of order, EdgeSubgraph returns what a fresh copy
// holds; for all of a query built as the parser builds one it shares the
// query's arrays, capacity-capped, so an append leaves the query alone.
// Hand-built graphs whose vertices are not numbered by first use, or
// that have an isolated vertex, are copied.
func TestEdgeSubgraphSharesWholeGraph(t *testing.T) {
	d := rdf.NewDict()
	parsed := []string{
		`SELECT ?x WHERE { ?x <p> ?y . }`,
		`SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?x . }`,
		`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <in> <C> . <C> <of> ?k . ?x ?p ?x . } LIMIT 3`,
		`SELECT ?y WHERE { <A> <p> <B> . ?y <q> <A> . } ORDER BY ?y`,
	}
	var graphs []*Graph
	for _, text := range parsed {
		graphs = append(graphs, MustParse(d, text))
	}
	// Numbered otherwise than by first use, and with an isolated vertex.
	reordered := &Graph{Verts: []Vertex{{Var: "b"}, {Var: "a"}}, Edges: []Edge{{From: 1, To: 0, Pred: 7}}}
	isolated := &Graph{Verts: []Vertex{{Var: "a"}, {Var: "b"}, {Var: "c"}}, Edges: []Edge{{From: 0, To: 1, Pred: 7}}}
	graphs = append(graphs, reordered, isolated)

	for gi, g := range graphs {
		n := len(g.Edges)
		for mask := 1; mask < 1<<n; mask++ {
			var idx []int
			for i := range n {
				if mask&(1<<i) != 0 {
					idx = append(idx, i)
				}
			}
			rev := slices.Clone(idx)
			slices.Reverse(rev)
			for _, order := range [][]int{idx, rev} {
				got, want := g.EdgeSubgraph(order), copiedSubgraph(g, order)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("graph %d, edges %v: got %+v, want %+v", gi, order, got, want)
				}
			}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		sub := g.EdgeSubgraph(all)
		shared := &sub.Verts[0] == &g.Verts[0] && &sub.Edges[0] == &g.Edges[0]
		if wantShared := gi < len(parsed); shared != wantShared {
			t.Errorf("graph %d: all of its edges shared its arrays: %v, want %v", gi, shared, wantShared)
		}
		if shared && (cap(sub.Verts) != len(sub.Verts) || cap(sub.Edges) != len(sub.Edges)) {
			t.Errorf("graph %d: the shared arrays are not capacity-capped", gi)
		}
	}
}

// AddVertex finds a vertex by scanning a small graph's few and through
// an index past them: on both sides a variable is its name, whatever
// Term it carries, and a constant its ID.
func TestAddVertexInterns(t *testing.T) {
	g := NewGraph()
	var verts []Vertex
	for i := 0; i < 3*scanVerts; i++ {
		verts = append(verts, Vertex{Var: fmt.Sprintf("v%d", i)}, Vertex{Term: rdf.ID(i + 1)})
	}
	for i, v := range verts {
		if got := g.AddVertex(v); got != i {
			t.Fatalf("vertex %d (%+v) interned at %d", i, v, got)
		}
		for j, u := range verts[:i+1] {
			u.Term += rdf.ID(len(verts)) * rdf.ID(len(u.Var)) // a variable's Term is ignored
			if got := g.AddVertex(u); got != j {
				t.Fatalf("with %d vertices, %+v interned at %d, want %d", i+1, u, got, j)
			}
		}
	}
	if len(g.Verts) != len(verts) {
		t.Errorf("%d vertices, want %d", len(g.Verts), len(verts))
	}
}
