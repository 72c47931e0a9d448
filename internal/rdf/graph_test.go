package rdf

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	terms := []Term{
		NewIRI("http://ex/a"),
		NewLiteral("Aristotle"),
		NewBlank("b0"),
		NewIRI("Aristotle"), // must not collide with the literal
	}
	ids := make([]ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
	}
	if ids[1] == ids[3] {
		t.Fatalf("literal and IRI with same lexical form collided: %v", ids)
	}
	for i, tm := range terms {
		if got := d.Decode(ids[i]); got != tm {
			t.Errorf("Decode(%d) = %v, want %v", ids[i], got, tm)
		}
	}
	if d.Len() != 4 {
		t.Errorf("Len = %d, want 4", d.Len())
	}
	// Re-encoding is idempotent.
	if id := d.Encode(terms[0]); id != ids[0] {
		t.Errorf("re-Encode changed ID: %d vs %d", id, ids[0])
	}
}

func TestDictLookup(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup(NewIRI("x")); ok {
		t.Fatal("Lookup on empty dict returned ok")
	}
	id := d.Encode(NewIRI("x"))
	got, ok := d.Lookup(NewIRI("x"))
	if !ok || got != id {
		t.Fatalf("Lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
	// A term already interned is looked up, and re-interned, without
	// allocating: its rendering is built on the stack.
	lit := NewLiteral("a \"quoted\" literal")
	d.Encode(lit)
	if n := testing.AllocsPerRun(100, func() {
		d.Encode(lit)
		d.Lookup(lit)
		d.Lookup(NewBlank("absent"))
	}); n != 0 {
		t.Errorf("Encode and Lookup of interned terms allocate %.1f times", n)
	}
}

func TestGraphAddAndIndexes(t *testing.T) {
	g := NewGraph(nil)
	a := g.Dict.Encode(NewIRI("a"))
	b := g.Dict.Encode(NewIRI("b"))
	c := g.Dict.Encode(NewIRI("c"))
	p := g.Dict.Encode(NewIRI("p"))
	q := g.Dict.Encode(NewIRI("q"))

	if !g.Add(Triple{a, p, b}) {
		t.Fatal("first Add returned false")
	}
	if g.Add(Triple{a, p, b}) {
		t.Fatal("duplicate Add returned true")
	}
	g.Add(Triple{b, q, c})
	g.Add(Triple{a, q, c})

	if g.NumTriples() != 3 {
		t.Errorf("NumTriples = %d, want 3", g.NumTriples())
	}
	sn := g.Snapshot()
	defer sn.Close()
	if len(sn.Vertices()) != 3 {
		t.Errorf("len(Vertices()) = %d, want 3", len(sn.Vertices()))
	}
	if got := len(sn.OutEdges(a)); got != 2 {
		t.Errorf("OutEdges(a) = %d edges, want 2", got)
	}
	if got := len(sn.InEdges(c)); got != 2 {
		t.Errorf("InEdges(c) = %d edges, want 2", got)
	}
	if got := sn.PredicateCount(p); got != 1 {
		t.Errorf("PredicateCount(p) = %d, want 1", got)
	}
	if got := sn.PredicateCount(q); got != 2 {
		t.Errorf("PredicateCount(q) = %d, want 2", got)
	}
	if !g.Has(Triple{a, p, b}) || g.Has(Triple{c, p, b}) {
		t.Error("Has gave wrong answers")
	}
	preds := sn.Predicates()
	if len(preds) != 2 {
		t.Errorf("Predicates = %v, want 2 entries", preds)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	src := strings.Join([]string{
		`<http://ex/Aristotle> <http://ex/name> "Aristotle" .`,
		`# a comment`,
		``,
		`<http://ex/Aristotle> <http://ex/influencedBy> <http://ex/Plato> .`,
		`_:b1 <http://ex/p> "line\nbreak" .`,
		`<http://ex/x> <http://ex/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`<http://ex/x> <http://ex/label> "hi"@en .`,
	}, "\n")
	g := NewGraph(nil)
	n, err := ReadNTriples(g, strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if n != 5 {
		t.Fatalf("parsed %d triples, want 5", n)
	}
	var buf bytes.Buffer
	if err := WriteNTriples(g, &buf); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	g2 := NewGraph(nil)
	if _, err := ReadNTriples(g2, &buf); err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if g2.NumTriples() != g.NumTriples() {
		t.Errorf("round trip triple count %d != %d", g2.NumTriples(), g.NumTriples())
	}
}

// badNTriples are statements ScanNTriples must refuse: FuzzScanNTriples
// is seeded from them too.
var badNTriples = []string{
	`<http://ex/a <http://ex/p> <http://ex/b> .`,
	`<http://ex/a> "lit" .`,
	`<a> <p> "unterminated .`,
	`<a> <p> <b> extra .`,
	`<a> <p> <unterminated .`,
	`<a> <p> "x"^^<unterminated .`,
	`<a> _b <c> .`,
	`<a> <p>`,
}

func TestNTriplesErrors(t *testing.T) {
	for _, bad := range badNTriples {
		g := NewGraph(nil)
		if _, err := ReadNTriples(g, strings.NewReader(bad)); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

// TestNTriplesScannerErrorHasLine: a line over the scanner's limit, or a
// failing reader, is reported at its line like a parse error, not as a
// bare bufio error.
func TestNTriplesScannerErrorHasLine(t *testing.T) {
	good := "<a> <p> <b> .\n"
	long := good + good + "<a> <p> \"" + strings.Repeat("x", 17<<20) + "\" .\n"
	g := NewGraph(nil)
	_, err := ReadNTriples(g, strings.NewReader(long))
	if err == nil || !strings.HasPrefix(err.Error(), "rdf: line 3: ") || !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("over-long line 3: err = %v", err)
	}
	_, err = ReadNTriples(g, io.MultiReader(strings.NewReader(good), iotest.ErrReader(io.ErrUnexpectedEOF)))
	if err == nil || !strings.HasPrefix(err.Error(), "rdf: line 2: ") || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("read error after line 1: err = %v", err)
	}
	if g.NumTriples() != 0 {
		t.Errorf("failed loads left %d triples", g.NumTriples())
	}
}

// TestLoadIsAllOrNothing: valid statements followed by a bad one are an
// error that adds no triple, in either syntax — the graph, and a snapshot
// pinned before the load, read as they did.
func TestLoadIsAllOrNothing(t *testing.T) {
	const have = "<s0> <p> <o0> .\n<s1> <p> <o1> .\n"
	for _, tc := range []struct {
		name string
		read func(*Graph, io.Reader) (int, error)
		doc  string
	}{
		{"ntriples", ReadNTriples, "<s2> <p> <o2> .\n<s0> <q> <o0> .\n<s3> <p> \"unterminated .\n"},
		{"ntriples trailing", ReadNTriples, "<s2> <p> <o2> .\n<s3> <p> <o3> <extra> .\n"},
		{"turtle", ReadTurtle, "<s2> <p> <o2> ; <q> <o0> .\n<s3> <p> <o3>"},
		{"turtle prefix", ReadTurtle, "<s2> <p> <o2> .\n<s3> <p> nope:o3 .\n"},
	} {
		g := NewGraph(nil)
		if n, err := ReadNTriples(g, strings.NewReader(have)); n != 2 || err != nil {
			t.Fatalf("%s: setup read %d, %v", tc.name, n, err)
		}
		want := newNaive(g.Triples()...)
		pinned := g.Snapshot()
		delta := g.DeltaLen()
		if n, err := tc.read(g, strings.NewReader(tc.doc)); err == nil || n != 0 {
			t.Errorf("%s: read %d triples, err %v; want an error", tc.name, n, err)
		}
		now := g.Snapshot()
		if g.NumTriples() != 2 || g.DeltaLen() != delta || !want.readBy(t, now) || !want.readBy(t, pinned) {
			t.Errorf("%s: a failed load changed the graph (%d triples)", tc.name, g.NumTriples())
		}
		now.Close()
		pinned.Close()
	}
}

func TestEscapeLiteralProperty(t *testing.T) {
	f := func(s string) bool {
		return UnescapeLiteral(string(appendEscaped(nil, s))) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDictEncodeDecodeProperty(t *testing.T) {
	d := NewDict()
	f := func(v string, kind uint8) bool {
		tm := Term{Kind: TermKind(kind % 3), Value: v}
		return d.Decode(d.Encode(tm)) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphAddIdempotentProperty(t *testing.T) {
	g := NewGraph(nil)
	f := func(s, p, o uint16) bool {
		tr := Triple{ID(s % 64), ID(p % 8), ID(o % 64)}
		before := g.NumTriples()
		first := g.Add(tr)
		second := g.Add(tr)
		after := g.NumTriples()
		if second {
			return false
		}
		if first {
			return after == before+1
		}
		return after == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
