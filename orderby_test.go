package rdffrag

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

func TestOrderBy(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	res, err := dep.Query(`SELECT ?x ?n WHERE { ?x <name> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	names := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		names[i] = row[1]
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("not sorted: %v", names)
	}

	desc, err := dep.Query(`SELECT ?x ?n WHERE { ?x <name> ?n . } ORDER BY DESC(?n)`)
	if err != nil {
		t.Fatalf("Query DESC: %v", err)
	}
	for i := 1; i < len(desc.Rows); i++ {
		if desc.Rows[i-1][1] < desc.Rows[i][1] {
			t.Errorf("DESC not sorted at %d: %v", i, desc.Rows)
		}
	}
}

func TestOrderByWithLimit(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	all, err := dep.Query(`SELECT ?n WHERE { ?x <name> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	top2, err := dep.Query(`SELECT ?n WHERE { ?x <name> ?n . } ORDER BY ?n LIMIT 2`)
	if err != nil {
		t.Fatalf("Query LIMIT: %v", err)
	}
	if len(top2.Rows) != 2 {
		t.Fatalf("rows = %d", len(top2.Rows))
	}
	// LIMIT must be applied after ORDER BY: top2 equals the first two
	// rows of the full ordered result.
	for i := 0; i < 2; i++ {
		if top2.Rows[i][0] != all.Rows[i][0] {
			t.Errorf("row %d: %q vs %q", i, top2.Rows[i][0], all.Rows[i][0])
		}
	}
}

func TestOrderByErrors(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	for _, bad := range []string{
		`SELECT ?n WHERE { ?x <name> ?n . } ORDER BY`,
		`SELECT ?n WHERE { ?x <name> ?n . } ORDER ?n`,
		`SELECT ?n WHERE { ?x <name> ?n . } ORDER BY DESC ?n`,
	} {
		if _, err := dep.Query(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

// TestOrderByTermKinds: ORDER BY ranks one column's terms as SPARQL 1.1
// §15.1 does — unbound, then blank nodes, IRIs, literals — not by the
// bytes of their N-Triples renderings, which put literals first and blank
// nodes last. DESC reverses both, equal keys keep their order, and LIMIT
// keeps the top of either order. Row i's second column is <ri>.
func TestOrderByTermKinds(t *testing.T) {
	dep := &Deployment{db: Open(Config{})}
	d := dep.db.graph.Dict
	keys := []rdf.ID{
		d.Encode(rdf.NewLiteral("lit")), d.Encode(rdf.NewIRI("http://ex/z")), rdf.NoID, d.Encode(rdf.NewBlank("b")),
		d.Encode(rdf.NewLiteral("a")), d.Encode(rdf.NewIRI("http://ex/a")), d.Encode(rdf.NewBlank("a")), rdf.NoID,
	}
	for _, tc := range []struct {
		desc  bool
		limit int
		want  string
	}{
		{false, 0, "r2 r7 r6 r3 r5 r1 r4 r0"},
		{true, 0, "r0 r4 r1 r5 r3 r6 r2 r7"},
		{false, 3, "r2 r7 r6"},
		{true, 3, "r0 r4 r1"},
	} {
		b := &match.Bindings{Vars: []string{"k", "row"}}
		for i, k := range keys {
			b.Rows = append(b.Rows, k, d.Encode(rdf.NewIRI(fmt.Sprintf("r%d", i))))
		}
		q := &sparql.Graph{OrderBy: []sparql.OrderKey{{Var: "k", Desc: tc.desc}}, Limit: tc.limit}
		res := dep.newResult(new(Result), q, b)
		res.decodeRows()
		var got []string
		for _, row := range res.Rows {
			got = append(got, strings.Trim(row[1], "<>"))
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("ORDER BY %s(?k) LIMIT %d: rows %v, want %s", map[bool]string{true: "DESC"}[tc.desc], tc.limit, got, tc.want)
		}
	}

	// The same three kinds loaded from a document and sorted end to end.
	db := Open(Config{Sites: 2, MinSupport: 0.5})
	if _, err := db.LoadNTriples(strings.NewReader("<s1> <p> \"lit\" .\n<s2> <p> <http://o> .\n<s3> <p> _:b .\n")); err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	query := `SELECT ?s ?o WHERE { ?s <p> ?o . } ORDER BY ?o`
	e2e, err := db.Deploy([]string{query})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	for _, tc := range []struct{ suffix, want string }{{"", "s3 s2 s1"}, {" LIMIT 1", "s3"}} {
		res, err := e2e.Query(query + tc.suffix)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, strings.Trim(row[0], "<>"))
		}
		if !slices.Equal(got, strings.Fields(tc.want)) {
			t.Errorf("%s%s: subjects %v, want %s", query, tc.suffix, got, tc.want)
		}
	}
}
