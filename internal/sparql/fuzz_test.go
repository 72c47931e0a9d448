package sparql_test

import (
	"errors"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// FuzzParse: whatever text reaches /query, the parser never panics, and
// every error it returns wraps ErrParse — the class /query answers with
// 400 — so no malformed query is mistaken for a server fault. The lookup
// parser /query uses agrees with the interning one on what parses, adds
// no term, and resolves a query exactly when it holds every constant.
func FuzzParse(f *testing.F) {
	for _, q := range append([]string{
		`SELECT ?x ?n WHERE { ?x <http://ex/name> ?n . ?x <http://ex/influencedBy> <http://ex/Aristotle> . }`,
		`PREFIX ex: <http://ex/> SELECT DISTINCT * { ?x ex:p "v"@en ; a ex:C , ex:D . FILTER(?x != ex:z) } ORDER BY DESC(?x) ?y LIMIT 10`,
		`SELECT ?x WHERE { ?x ?p "42"^^<http://www.w3.org/2001/XMLSchema#int> . ?x <r> 7 . _:b <q> ?x }`,
		`SELECT ?x * WHERE { ?x <p> ?y }`,
		`SELECT DISTINCT DISTINCT ?x WHERE { ?x <p> ?y }`,
		`SELECT WHERE { ?x <p> ?y }`,
		`SELECT ?x WHERE { ?x <p ?y . }`,
		`SELECT ?x WHERE { ?x <p> "unterminated }`,
		`SELECT ?x WHERE { ?x <p> ?y } LIMIT -1`,
		`SELECT ?x WHERE { OPTIONAL { ?x <p> ?y } }`,
		`PREFIX : <http://ex/> SELECT ?x { ?x :p :o }`,
		"",
		`PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/> PREFIX rev: <http://purl.org/stuff/rev#> SELECT ?r ?u WHERE { ?r rev:reviewer ?u . ?u wsdbm:likes wsdbm:Product0 }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER((?y > 3 && (?y < (10 + ?z))) || regex(str(?x), "(a|b)")) ?y <q> ?z }`,
		`SELECT ?x WHERE { ?x <p> "say \"hi\"\n\tthere\\"@en-GB . ?x <q> "été"@fr }`,
	}, watdivTexts()...) {
		f.Add(q)
	}
	known := rdf.NewDict()
	known.Encode(rdf.NewIRI("http://ex/name"))
	known.Encode(rdf.NewIRI("p"))
	f.Fuzz(func(t *testing.T, q string) {
		d := rdf.NewDict()
		g, err := sparql.NewParser(d).Parse(q)
		if err != nil && !errors.Is(err, sparql.ErrParse) {
			t.Fatalf("Parse(%q) = %v, which does not wrap ErrParse", q, err)
		}
		n := known.Len()
		lg, lerr := sparql.NewLookupParser(known).Parse(q)
		if known.Len() != n || (err == nil) != (lerr == nil) {
			t.Fatalf("lookup Parse(%q) = %v, %d new terms; interning Parse: %v", q, lerr, known.Len()-n, err)
		}
		if err != nil {
			return
		}
		held := true // every constant of q is a term known holds
		for _, v := range g.Verts {
			if !v.IsVar() {
				_, ok := known.Lookup(d.Decode(v.Term))
				held = held && ok
			}
		}
		for _, e := range g.Edges {
			if !e.IsPredVar() {
				_, ok := known.Lookup(d.Decode(e.Pred))
				held = held && ok
			}
		}
		if lg.Resolved() != held {
			t.Fatalf("lookup Parse(%q): Resolved() = %v, want %v", q, lg.Resolved(), held)
		}
	})
}
