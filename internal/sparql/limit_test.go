package sparql

import (
	"testing"

	"rdffrag/internal/rdf"
)

func TestParseLimit(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT ?x WHERE { ?x <p> ?y . } LIMIT 5`)
	if q.Limit != 5 {
		t.Errorf("Limit = %d, want 5", q.Limit)
	}
	q2 := MustParse(d, `SELECT ?x WHERE { ?x <p> ?y . }`)
	if q2.Limit != 0 {
		t.Errorf("default Limit = %d, want 0", q2.Limit)
	}
}

func TestParseLimitErrors(t *testing.T) {
	d := rdf.NewDict()
	for _, bad := range []string{
		`SELECT ?x WHERE { ?x <p> ?y . } LIMIT`,
		`SELECT ?x WHERE { ?x <p> ?y . } LIMIT ?x`,
		`SELECT ?x WHERE { ?x <p> ?y . } LIMIT 5 garbage`,
		`SELECT ?x WHERE { ?x <p> ?y . } GROUP BY ?x`,
	} {
		if _, err := NewParser(d).Parse(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}
