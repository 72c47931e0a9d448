package sparql

import (
	"errors"
	"strings"
	"testing"

	"rdffrag/internal/rdf"
)

// Every way the parser can fail — lexer errors, structural errors,
// unsupported features — must classify as ErrParse so callers can route
// on errors.Is instead of matching message text.
func TestParseErrorsWrapSentinel(t *testing.T) {
	d := rdf.NewDict()
	bad := []string{
		"garbage",
		"SELECT ?x WHERE { ?x <urn:p> }",
		"SELECT ?x WHERE { ?x <urn:p",
		"SELECT ?x WHERE { OPTIONAL { ?x <urn:p> ?y } }",
		"SELECT ?x WHERE { ?x <urn:p> ?y } LIMIT -1",
		"SELECT ?x WHERE { ?x foo:bar ?y }",
		"SELECT ?x * WHERE { ?x <urn:p> ?y }",
		"SELECT ?x DISTINCT ?y WHERE { ?x <urn:p> ?y }",
		"SELECT DISTINCT DISTINCT ?x WHERE { ?x <urn:p> ?y }",
		"SELECT WHERE { ?x <urn:p> ?y }",
		"SELECT * ?x WHERE { ?x <urn:p> ?y }",
		"SELECT",
	}
	for _, q := range bad {
		_, err := NewParser(d).Parse(q)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
			continue
		}
		if !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) error %v does not wrap ErrParse", q, err)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q) error %v is not a *ParseError", q, err)
		}
		if !strings.HasPrefix(err.Error(), "sparql: ") {
			t.Errorf("Parse(%q) error %q lost its message prefix", q, err)
		}
	}

	for _, ok := range []string{
		"SELECT ?x WHERE { ?x <urn:p> ?y }",
		"SELECT DISTINCT ?x ?y WHERE { ?x <urn:p> ?y }",
		"SELECT * WHERE { ?x <urn:p> ?y }",
		"select distinct * { ?x <urn:p> ?y }",
	} {
		if _, err := NewParser(d).Parse(ok); err != nil {
			t.Fatalf("Parse(%q): %v", ok, err)
		}
	}
}
