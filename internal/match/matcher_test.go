package match

import (
	"reflect"
	"slices"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// philosopherGraph builds a small version of the paper's Figure 1.
func philosopherGraph() *rdf.Graph {
	g := rdf.NewGraph(nil)
	add := func(s, p, o string) {
		g.AddTerms(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewIRI(o))
	}
	lit := func(s, p, o string) {
		g.AddTerms(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewLiteral(o))
	}
	add("Aristotle", "influencedBy", "Plato")
	add("Aristotle", "mainInterest", "Ethics")
	lit("Aristotle", "name", "Aristotle")
	add("Friedrich_Nietzsche", "influencedBy", "Aristotle")
	add("Friedrich_Nietzsche", "mainInterest", "Ethics")
	lit("Friedrich_Nietzsche", "name", "Friedrich Nietzsche")
	add("Max_Horkheimer", "influencedBy", "Karl_Marx")
	add("Max_Horkheimer", "mainInterest", "Social_theory")
	lit("Max_Horkheimer", "name", "Max Horkheimer")
	add("Boethius", "mainInterest", "Religion")
	lit("Boethius", "name", "Boethius")
	add("Boethius", "placeOfDeath", "Pavia")
	add("Pavia", "country", "Italy")
	lit("Pavia", "postalCode", "27100")
	return g
}

func TestFindStar(t *testing.T) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	ms := Find(q, g.Snapshot(), Options{})
	if len(ms) != 4 {
		t.Fatalf("matches = %d, want 4", len(ms))
	}
}

func TestFindConstantAnchor(t *testing.T) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <influencedBy> <Aristotle> . }`)
	ms := Find(q, g.Snapshot(), Options{})
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	got := g.Dict.Decode(ms[0].Vertex[0]).Value
	if got != "Friedrich_Nietzsche" {
		t.Errorf("bound = %q", got)
	}
}

func TestFindChain(t *testing.T) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT * WHERE { ?x <placeOfDeath> ?p . ?p <country> ?c . ?p <postalCode> ?z . }`)
	ms := Find(q, g.Snapshot(), Options{})
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if len(ms[0].Triples) != 3 {
		t.Errorf("triples per match = %d, want 3", len(ms[0].Triples))
	}
}

func TestHomomorphismAllowsVertexMerge(t *testing.T) {
	g := rdf.NewGraph(nil)
	a := rdf.NewIRI("a")
	p := rdf.NewIRI("p")
	g.AddTerms(a, p, a) // self loop
	q := sparql.MustParse(g.Dict, `SELECT * WHERE { ?x <p> ?y . }`)
	ms := Find(q, g.Snapshot(), Options{})
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1 (?x and ?y may coincide)", len(ms))
	}
	if ms[0].Vertex[0] != ms[0].Vertex[1] {
		t.Error("self loop should bind both vars to the same vertex")
	}
}

func TestVariablePredicateConsistent(t *testing.T) {
	g := rdf.NewGraph(nil)
	add := func(s, p, o string) { g.AddTerms(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewIRI(o)) }
	add("a", "p", "b")
	add("b", "p", "c")
	add("b", "q", "c")
	q := sparql.MustParse(g.Dict, `SELECT * WHERE { ?x ?r ?y . ?y ?r ?z . }`)
	ms := Find(q, g.Snapshot(), Options{})
	// ?r must bind consistently: (a-p-b, b-p-c) only; (a-p-b, b-q-c) invalid.
	// Self-pairs like (a-p-b paired with itself) are allowed by homomorphism
	// only if endpoints chain: y=b needs x->y then y->z; count carefully:
	// candidates: x=a,y=b,z=c with r=p. Any others? x=b,y=c: c has no out.
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if g.Dict.Decode(ms[0].Pred["r"]).Value != "p" {
		t.Errorf("pred binding = %v", ms[0].Pred)
	}
}

// TestCountLimit: Count counts every match; a caller that needs only a
// LIMIT's worth stops ForEach from its callback.
func TestCountLimit(t *testing.T) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <name> ?n . }`)
	if n := Count(q, g.Snapshot(), Options{}); n != 4 {
		t.Fatalf("Count = %d, want 4", n)
	}
	n := 0
	ForEach(q, g.Snapshot(), Options{}, func(*Match) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("ForEach stopped after %d matches, want 2", n)
	}
}

func TestVertexFilter(t *testing.T) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <mainInterest> ?i . }`)
	ethics, _ := g.Dict.Lookup(rdf.NewIRI("Ethics"))
	// Restrict ?i (vertex index of the object) to Ethics.
	objIdx := q.Edges[0].To
	n := Count(q, g.Snapshot(), Options{VertexFilter: func(qv int, id rdf.ID) bool {
		if qv == objIdx {
			return id == ethics
		}
		return true
	}})
	if n != 2 {
		t.Fatalf("filtered count = %d, want 2 (Aristotle, Nietzsche)", n)
	}
}

// MatchedGraph returns the subgraph of g induced by all matches of q, as
// a frozen graph of its own: MatchedEdges' triples in (S, P, O) order,
// IDs of g's dictionary.
func MatchedGraph(q *sparql.Graph, g *rdf.Snapshot, opts Options) *rdf.Graph {
	return rdf.NewFrozen(nil, MatchedEdges(q, g, opts).Triples())
}

func TestMatchedGraph(t *testing.T) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT * WHERE { ?x <influencedBy> ?y . ?x <mainInterest> ?i . ?x <name> ?n . }`)
	sub := MatchedGraph(q, g.Snapshot(), Options{})
	// Aristotle, Nietzsche, Horkheimer match (Boethius has no influencedBy).
	if sub.NumTriples() != 9 {
		t.Fatalf("fragment triples = %d, want 9", sub.NumTriples())
	}
	// Boethius' edges must be absent.
	b, _ := g.Dict.Lookup(rdf.NewIRI("Boethius"))
	ssn := sub.Snapshot()
	defer ssn.Close()
	if ssn.OutDegree(b) != 0 {
		t.Error("Boethius leaked into fragment")
	}
}

func TestToBindingsAndDedup(t *testing.T) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT ?i WHERE { ?x <mainInterest> ?i . }`)
	ms := Find(q, g.Snapshot(), Options{})
	b := ToBindings(q, ms)
	if b.Len() != 4 {
		t.Fatalf("rows = %d, want 4", b.Len())
	}
	iPos := -1
	for i, v := range b.Vars {
		if v == "i" {
			iPos = i
		}
	}
	if iPos == -1 {
		t.Fatalf("var i missing: %v", b.Vars)
	}
	// Project to ?i only and dedupe: Ethics, Social_theory, Religion.
	proj := &Bindings{Vars: []string{"i"}}
	for row := range slices.Chunk(b.Rows, len(b.Vars)) {
		proj.Rows = append(proj.Rows, row[iPos])
	}
	proj.Dedup()
	if proj.Len() != 3 {
		t.Errorf("deduped = %d, want 3", proj.Len())
	}
}

func TestEmptyQueryAndNoMatch(t *testing.T) {
	g := philosopherGraph()
	empty := sparql.NewGraph()
	if n := Count(empty, g.Snapshot(), Options{}); n != 0 {
		t.Errorf("empty query count = %d", n)
	}
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <noSuchPred> ?y . }`)
	if n := Count(q, g.Snapshot(), Options{}); n != 0 {
		t.Errorf("no-match count = %d", n)
	}
}

func TestTriangleHomomorphism(t *testing.T) {
	g := rdf.NewGraph(nil)
	add := func(s, p, o string) { g.AddTerms(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewIRI(o)) }
	add("a", "p", "b")
	add("b", "p", "c")
	add("c", "p", "a")
	q := sparql.MustParse(g.Dict, `SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <p> ?x . }`)
	ms := Find(q, g.Snapshot(), Options{})
	if len(ms) != 3 {
		t.Fatalf("triangle matches = %d, want 3 rotations", len(ms))
	}
}

// TestVertexMask: a set of vertices grows by words as vertices are added,
// holds what was added, and is within n exactly when no vertex it holds
// is n or beyond — words of zeros past n included.
func TestVertexMask(t *testing.T) {
	var m VertexMask
	if m.Has(0) || !m.Within(0) {
		t.Errorf("the empty set has vertex 0 or is not within 0")
	}
	m = m.Add(3).Add(70)
	if len(m) != 2 || !m.Has(3) || !m.Has(70) || m.Has(4) || m.Has(200) {
		t.Errorf("set %v after adding 3 and 70", m)
	}
	for n, want := range map[int]bool{0: false, 4: false, 64: false, 70: false, 71: true, 200: true} {
		if m.Within(n) != want {
			t.Errorf("%v within %d: %v, want %v", m, n, !want, want)
		}
	}
	if !(VertexMask{1, 0}).Within(1) || (VertexMask{2}).Within(1) {
		t.Errorf("a word of zeros past n counts, or a vertex past n does not")
	}
}

// TestKeepEveryVertexFindsEveryMatch: a Keep that marks every variable
// vertex leaves the search as it is, match for match.
func TestKeepEveryVertexFindsEveryMatch(t *testing.T) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	all := Find(q, g.Snapshot(), Options{})
	if kept := Find(q, g.Snapshot(), Options{Keep: VertexMask{1<<len(q.Verts) - 1}}); len(all) < 2 || !reflect.DeepEqual(kept, all) {
		t.Errorf("keeping every vertex finds %d matches, the full search %d", len(kept), len(all))
	}
}

func BenchmarkMatchStar(b *testing.B) {
	g := philosopherGraph()
	q := sparql.MustParse(g.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(q, g.Snapshot(), Options{})
	}
}
