package rdf

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ntStatement is what a line ScanNTriples accepts must look like: three
// terms, each one closed — an IRI by its '>', a literal by an unescaped
// quote, a datatype by its '>' — and nothing after the third but an
// optional '.'. It is looser than the scanner (a blank node label may
// stop anywhere), which is all the fuzz target needs of it.
var ntStatement = regexp.MustCompile(`(?s)^(?:[ \t]*(?:<[^>]*>|_:[^ \t]*|"(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>|@[^ \t]*)?)){3}[\s\v\x{85}\p{Z}]*\.?$`)

// FuzzScanNTriples: the scanner never panics; a document it accepts holds,
// line for line, only closed terms and no trailing content, one statement
// to a line; loaded by ReadNTriples it gives the dictionary, ID for ID,
// and the triples that the scanned statements encoded in order give, and
// written back by WriteNTriples it scans to the graph's triple list
// again. A document the scanner refuses, ReadNTriples refuses with the
// same error, its line included, and adds no triple.
func FuzzScanNTriples(f *testing.F) {
	f.Add("<http://ex/Aristotle> <http://ex/name> \"Aristotle\" .\n# a comment\n\n_:b1 <http://ex/p> \"line\\nbreak\" .\n" +
		"<http://ex/x> <http://ex/age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n<http://ex/x> <http://ex/label> \"hi\"@en .")
	f.Add("<a><p><b>.\r\n_: <p> _:c.\n<a> <p> \"q\\\"uote\\\\\"  .\n<a> <p> \"\xff\\t\" .\n<a> <p> <b>")
	// Terms whose rendering is not the line's bytes — a raw tab or CR, an
	// escape, a datatype, a language tag, a blank node ending the line —
	// beside the same values written as their renderings, and a predicate
	// repeated across them.
	f.Add("<a> <p> \"raw\ttab\" .\n<a> <p> \"raw\\ttab\" .\n<a> <p> \"c\rr\" .\n<a> <p> \"q\\\"\" .\n" +
		"<a> <p> \"42\"^^<dt> .\n<a> <p> \"42\" .\n<a> <p> \"hi\"@en .\n<a> \"p\\n\" <b> .\n<a> \"p\\n\" _:end\n_:end <p> <a>")
	for _, bad := range badNTriples {
		f.Add(bad)
		f.Add("<a> <p> <b> .\n" + bad + "\n")
	}
	scan := func(doc string) (stmts [][3]Term, err error) {
		err = ScanNTriples(strings.NewReader(doc), func(s, p, o Term) error {
			stmts = append(stmts, [3]Term{s, p, o})
			return nil
		})
		return stmts, err
	}
	f.Fuzz(func(t *testing.T, doc string) {
		stmts, err := scan(doc)
		g := NewGraph(nil)
		read, readErr := ReadNTriples(g, strings.NewReader(doc))
		if (err == nil) != (readErr == nil) || err != nil && err.Error() != readErr.Error() {
			t.Fatalf("ReadNTriples: %v; ScanNTriples: %v", readErr, err)
		}
		if err != nil {
			if read != 0 || g.NumTriples() != 0 {
				t.Fatalf("a refused document read %d statements, left %d triples", read, g.NumTriples())
			}
			return
		}
		n := 0
		for i, line := range strings.Split(doc, "\n") {
			if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			n++
			if !ntStatement.MatchString(line) {
				t.Fatalf("line %d accepted: %q", i+1, line)
			}
		}
		if n != len(stmts) {
			t.Fatalf("%d statements scanned from %d lines", len(stmts), n)
		}

		if read != n {
			t.Fatalf("ReadNTriples read %d of %d statements", read, n)
		}
		d, want := NewDict(), make([]Triple, 0, n)
		for _, st := range stmts {
			want = append(want, Triple{S: d.Encode(st[0]), P: d.Encode(st[1]), O: d.Encode(st[2])})
		}
		if got := g.Dict.Rendered(); !slices.Equal(got, d.Rendered()) {
			t.Fatalf("ReadNTriples interned %q; the scan encodes to %q", got, d.Rendered())
		}
		for id := range ID(d.Len()) {
			if got := g.Dict.Decode(id); got != d.Decode(id) {
				t.Fatalf("ReadNTriples decodes %d to %#v; the scan's dictionary to %#v", id, got, d.Decode(id))
			}
		}
		slices.SortFunc(want, CompareSPO)
		if got := g.Triples(); !slices.Equal(got, slices.Compact(want)) {
			t.Fatalf("ReadNTriples holds %v; the scan encodes to %v", got, want)
		}
		var held [][3]Term
		for _, tr := range g.Triples() {
			held = append(held, [3]Term{g.Dict.Decode(tr.S), g.Dict.Decode(tr.P), g.Dict.Decode(tr.O)})
		}
		var out bytes.Buffer
		if err := WriteNTriples(g, &out); err != nil {
			t.Fatal(err)
		}
		if back, err := scan(out.String()); err != nil || !slices.Equal(back, held) {
			t.Fatalf("written back as %q, which scans to %v (%v), not %v", out.String(), back, err, held)
		}
	})
}

// FuzzReadTurtle: the Turtle reader never panics; a document it refuses
// adds no triple to the graph it was read into; and what it accepts,
// written back by WriteTurtle, reads to the same triple set.
func FuzzReadTurtle(f *testing.F) {
	f.Add("@prefix ex: <http://ex/> .\n@prefix : <http://default/> .\nex:Aristotle a ex:Philosopher ;\n    ex:name \"Aristotle\" ;\n" +
		"    ex:mainInterest ex:Ethics , ex:Logic .\n:thing ex:rel _:b1 . # comment\n")
	f.Add("PREFIX ex: <http://ex/>\nBASE <http://base/>\n<a> ex:label \"tagged\"@en ; ex:age \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> ;\n" +
		"    ex:rank 7 ; ex:score -3.14 ; ex:q \"q\\\"uote\\\\\" .")
	for _, bad := range []string{
		`@prefix ex <http://ex/> .`, `@prefix ex: <http://ex/>`, `ex:a ex:p ex:b .`,
		`<http://a> <http://p> "unterminated`, `<http://a> <http://p> <http://b>`, `<http://a> "lit" <http://b> .`,
	} {
		f.Add(bad)
		f.Add("<http://a> <http://p> <http://b> .\n" + bad)
	}
	terms := func(g *Graph) []string {
		var out []string
		for _, tr := range g.Triples() {
			out = append(out, g.TripleString(tr))
		}
		slices.Sort(out)
		return out
	}
	f.Fuzz(func(t *testing.T, doc string) {
		g := NewGraph(nil)
		g.AddTerms(NewIRI("http://held/s"), NewIRI("http://held/p"), NewLiteral("held"))
		held := terms(g)
		n, err := ReadTurtle(g, strings.NewReader(doc))
		if err != nil {
			if got := terms(g); n != 0 || !slices.Equal(got, held) {
				t.Fatalf("a refused document (%v) read %d triples, left %v", err, n, got)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteTurtle(g, &out); err != nil {
			t.Fatal(err)
		}
		back := NewGraph(nil)
		if _, err := ReadTurtle(back, bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("written back as %q, which does not read: %v", out.String(), err)
		}
		if want, got := terms(g), terms(back); !slices.Equal(got, want) {
			t.Fatalf("written back as %q, which reads to %v, not %v", out.String(), got, want)
		}
	})
}
