package sparql

import (
	"errors"
	"testing"

	"rdffrag/internal/rdf"
)

// FuzzParse: whatever text reaches /query, the parser never panics, and
// every error it returns wraps ErrParse — the class /query answers with
// 400 — so no malformed query is mistaken for a server fault.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
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
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if _, err := NewParser(rdf.NewDict()).Parse(q); err != nil && !errors.Is(err, ErrParse) {
			t.Fatalf("Parse(%q) = %v, which does not wrap ErrParse", q, err)
		}
	})
}
