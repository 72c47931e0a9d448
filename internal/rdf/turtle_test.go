package rdf

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestReadTurtleBasics(t *testing.T) {
	src := `
@prefix ex: <http://ex/> .
@prefix : <http://default/> .

ex:Aristotle ex:influencedBy ex:Plato .
ex:Aristotle a ex:Philosopher ;
    ex:name "Aristotle" ;
    ex:mainInterest ex:Ethics , ex:Logic .
:thing ex:rel _:b1 .
`
	g := NewGraph(nil)
	n, err := ReadTurtle(g, strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	if n != 6 {
		t.Fatalf("parsed %d triples, want 6", n)
	}
	arist, ok := g.Dict.Lookup(NewIRI("http://ex/Aristotle"))
	if !ok {
		t.Fatal("prefixed subject not expanded")
	}
	sn := g.Snapshot()
	defer sn.Close()
	if len(sn.OutEdges(arist)) != 5 {
		t.Errorf("Aristotle out-degree = %d, want 5", len(sn.OutEdges(arist)))
	}
	// 'a' expands to rdf:type.
	typeID, ok := g.Dict.Lookup(NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"))
	if !ok || sn.PredicateCount(typeID) != 1 {
		t.Error("'a' keyword not handled")
	}
	// Default prefix ':'.
	if _, ok := g.Dict.Lookup(NewIRI("http://default/thing")); !ok {
		t.Error("default prefix not expanded")
	}
	// Blank node object.
	if _, ok := g.Dict.Lookup(NewBlank("b1")); !ok {
		t.Error("blank node lost")
	}
}

func TestReadTurtleLiterals(t *testing.T) {
	src := `
@prefix ex: <http://ex/> .
ex:a ex:name "plain" .
ex:a ex:label "tagged"@en .
ex:a ex:age "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
ex:a ex:rank 7 .
ex:a ex:score 3.14 .
ex:a ex:bio """a long
multi line""" .
ex:a ex:quote "he said \"hi\"" .
`
	g := NewGraph(nil)
	n, err := ReadTurtle(g, strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	if n != 7 {
		t.Fatalf("parsed %d triples, want 7", n)
	}
	for _, want := range []string{"plain", "tagged", "42", "7", "3.14", "a long\nmulti line", `he said "hi"`} {
		if _, ok := g.Dict.Lookup(NewLiteral(want)); !ok {
			t.Errorf("literal %q not found", want)
		}
	}
}

func TestReadTurtleSparqlStylePrefix(t *testing.T) {
	src := `
PREFIX ex: <http://ex/>
ex:a ex:p ex:b .
`
	g := NewGraph(nil)
	if _, err := ReadTurtle(g, strings.NewReader(src)); err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	if g.NumTriples() != 1 {
		t.Fatalf("triples = %d", g.NumTriples())
	}
}

func TestReadTurtleBase(t *testing.T) {
	src := `
@base <http://base/> .
@prefix ex: <http://ex/> .
<rel> ex:p <other> .
`
	g := NewGraph(nil)
	if _, err := ReadTurtle(g, strings.NewReader(src)); err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	if _, ok := g.Dict.Lookup(NewIRI("http://base/rel")); !ok {
		t.Error("relative IRI not resolved against base")
	}
}

func TestReadTurtleComments(t *testing.T) {
	src := `
# leading comment
@prefix ex: <http://ex/> . # trailing
ex:a ex:p ex:b . # done
`
	g := NewGraph(nil)
	n, err := ReadTurtle(g, strings.NewReader(src))
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestReadTurtleErrors(t *testing.T) {
	for _, bad := range []string{
		`@prefix ex <http://ex/> .`,           // missing ':'
		`@prefix ex: <http://ex/>`,            // missing '.'
		`ex:a ex:p ex:b .`,                    // undeclared prefix
		`<http://a> <http://p> "unterminated`, // literal
		`<http://a> <http://p> <http://b>`,    // missing '.'
		`<http://a> "lit" <http://b> .`,       // literal predicate
	} {
		g := NewGraph(nil)
		if _, err := ReadTurtle(g, strings.NewReader(bad)); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestWriteTurtleRoundTrip(t *testing.T) {
	g := NewGraph(nil)
	g.AddTerms(NewIRI("http://ex/a"), NewIRI("http://ex/p"), NewIRI("http://ex/b"))
	g.AddTerms(NewIRI("http://ex/a"), NewIRI("http://ex/q"), NewLiteral("hello world"))
	g.AddTerms(NewIRI("http://ex/c"), NewIRI("http://ex/p"), NewBlank("n1"))
	var buf strings.Builder
	if err := WriteTurtle(g, &stringsWriter{&buf}); err != nil {
		t.Fatalf("WriteTurtle: %v", err)
	}
	// In (S, P, O) order by dictionary ID, so a subject's triples are one
	// predicate list.
	if want := "<http://ex/a> <http://ex/p> <http://ex/b> ;\n    <http://ex/q> \"hello world\" .\n<http://ex/c> <http://ex/p> _:n1 .\n"; buf.String() != want {
		t.Errorf("WriteTurtle wrote\n%s\nwant\n%s", buf.String(), want)
	}
	g2 := NewGraph(nil)
	n, err := ReadTurtle(g2, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-read: %v\noutput:\n%s", err, buf.String())
	}
	if n != g.NumTriples() {
		t.Fatalf("round trip %d != %d\noutput:\n%s", n, g.NumTriples(), buf.String())
	}
	for _, tr := range g.Triples() {
		want := g.TripleString(tr)
		found := false
		for _, tr2 := range g2.Triples() {
			if g2.TripleString(tr2) == want {
				found = true
			}
		}
		if !found {
			t.Errorf("triple %s lost in round trip", want)
		}
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWritersReportAFailedWrite: a document larger than the writers'
// buffer meets the failure while triples are still being written, a small
// one at the final flush; neither is swallowed.
func TestWritersReportAFailedWrite(t *testing.T) {
	small, large := NewGraph(nil), NewGraph(nil)
	small.AddTerms(NewIRI("http://ex/a"), NewIRI("http://ex/p"), NewIRI("http://ex/b"))
	for i := 0; i < 300; i++ {
		large.AddTerms(NewIRI(fmt.Sprintf("http://ex/subject/%d", i/3)), NewIRI("http://ex/p"), NewLiteral(fmt.Sprintf("value %d", i)))
	}
	for name, g := range map[string]*Graph{"small": small, "large": large} {
		if err := WriteNTriples(g, failingWriter{}); err == nil {
			t.Errorf("%s: WriteNTriples swallowed the write error", name)
		}
		if err := WriteTurtle(g, failingWriter{}); err == nil {
			t.Errorf("%s: WriteTurtle swallowed the write error", name)
		}
	}
}

// stringsWriter adapts strings.Builder to io.Writer (Builder already
// implements it; kept for clarity at the call site).
type stringsWriter struct{ b *strings.Builder }

func (w *stringsWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

func TestReadTurtleEquivalentToNTriples(t *testing.T) {
	ttl := `
@prefix ex: <http://ex/> .
ex:a ex:p ex:b ; ex:q "v" .
`
	nt := `
<http://ex/a> <http://ex/p> <http://ex/b> .
<http://ex/a> <http://ex/q> "v" .
`
	g1 := NewGraph(nil)
	if _, err := ReadTurtle(g1, strings.NewReader(ttl)); err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph(nil)
	if _, err := ReadNTriples(g2, strings.NewReader(nt)); err != nil {
		t.Fatal(err)
	}
	if g1.NumTriples() != g2.NumTriples() {
		t.Fatalf("triple counts differ: %d vs %d", g1.NumTriples(), g2.NumTriples())
	}
	for _, tr := range g1.Triples() {
		s := g1.TripleString(tr)
		found := false
		for _, tr2 := range g2.Triples() {
			if g2.TripleString(tr2) == s {
				found = true
			}
		}
		if !found {
			t.Errorf("triple %s missing from N-Triples parse", s)
		}
	}
}
