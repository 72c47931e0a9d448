package sparql_test

import (
	"regexp"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// watdivTexts returns the 20 WatDiv templates as parseable queries: each
// %placeholder% becomes an IRI constant, as instantiation makes it one.
func watdivTexts() []string {
	placeholder := regexp.MustCompile(`%(\w+)%`)
	var texts []string
	for _, tpl := range watdiv.Templates() {
		texts = append(texts, placeholder.ReplaceAllString(tpl.Text, "<wsdbm:${1}0>"))
	}
	return texts
}

// TestParseAllocs pins what parsing the 20 WatDiv templates allocates,
// constants already interned: every served query is parsed on its way
// in, plan-cache hit or not. Lexing the whole text into a token slice
// first, and indexing vertices by a formatted string key in a map made
// with every graph, it took 591 allocations (2.8 KB a query); pulling one
// token at a time and finding a vertex among a small graph's few by
// scanning them, it takes 183 (0.7 KB), and the ceiling is that plus
// 10 %.
func TestParseAllocs(t *testing.T) {
	texts := watdivTexts()
	p := sparql.NewParser(rdf.NewDict())
	allocs := testing.AllocsPerRun(20, func() {
		for _, q := range texts {
			if _, err := p.Parse(q); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocations parsing the %d templates", allocs, len(texts))
	if limit := parseAllocs * 1.1; allocs > limit {
		t.Errorf("parsing the %d templates allocates %.0f times, want <= %.0f", len(texts), allocs, limit)
	}
}

// What TestParseAllocs measured when the ceiling was set.
const parseAllocs = 183
