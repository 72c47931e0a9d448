package rdffrag

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestZeroVariableSubqueryEndToEnd: an all-constant triple pattern is a
// subquery without variables — its table is empty tuples, which a flat
// array cannot count — joined with a variable pattern as a Cartesian
// factor. Present, it lets the other pattern's rows through once each;
// absent, it empties the answer; a pushed-down LIMIT changes neither. A
// pattern naming a term the data has never held (<France>) is not run at
// all: the query answers no rows without a subquery.
func TestZeroVariableSubqueryEndToEnd(t *testing.T) {
	names := [][]string{
		{"<Aristotle>", `"Aristotle"`}, {"<Boethius>", `"Boethius"`},
		{"<Friedrich_Nietzsche>", `"Friedrich Nietzsche"`}, {"<Max_Horkheimer>", `"Max Horkheimer"`},
	}
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			dep := deployPhilosophers(t, Config{Strategy: strategy, Sites: 3, MinSupport: 0.2}, phWorkload)
			for _, tc := range []struct {
				query        string
				want         [][]string
				limit        int
				subqueries   int
				intermediate int
			}{
				{`SELECT ?x ?n WHERE { <Chalcis> <country> <Greece> . ?x <name> ?n . }`, names, 0, 2, 5},
				{`SELECT ?x ?n WHERE { <Chalcis> <country> <Plato> . ?x <name> ?n . }`, nil, 0, 2, 4},
				{`SELECT ?x ?n WHERE { <Chalcis> <country> <Greece> . ?x <name> ?n . } LIMIT 2`, names, 2, 2, 5},
				{`SELECT ?x ?n WHERE { <Chalcis> <country> <Plato> . ?x <name> ?n . } LIMIT 2`, nil, 2, 2, 4},
				{`SELECT ?x ?n WHERE { <Chalcis> <country> <France> . ?x <name> ?n . }`, nil, 0, 0, 0},
				{`SELECT ?x WHERE { <Aristotle> <influencedBy> <Plato> . <Aristotle> <mainInterest> ?x . }`, [][]string{{"<Ethics>"}}, 0, 2, 2},
				// Nothing but the constant pattern: whether it holds.
				{`SELECT ?x WHERE { <Chalcis> <country> <Greece> . }`, [][]string{{}}, 0, 1, 1},
				{`SELECT ?x WHERE { <Chalcis> <country> <Plato> . }`, nil, 0, 1, 0},
				{`SELECT ?x WHERE { <Chalcis> <country> <France> . }`, nil, 0, 0, 0},
			} {
				res, err := dep.Query(tc.query)
				if err != nil {
					t.Errorf("%s: %v", tc.query, err)
					continue
				}
				got := slices.Clone(res.Rows)
				slices.SortFunc(got, slices.Compare[[]string])
				ok := slices.EqualFunc(got, tc.want, slices.Equal[[]string])
				if tc.limit > 0 && len(tc.want) > 0 {
					// Which rows a LIMIT keeps is not defined; that they are
					// tc.limit distinct rows of the full answer is.
					ok = len(got) == tc.limit && len(slices.CompactFunc(got, slices.Equal[[]string])) == tc.limit
					for _, row := range got {
						ok = ok && slices.ContainsFunc(tc.want, func(w []string) bool { return slices.Equal(w, row) })
					}
				}
				if !ok {
					t.Errorf("%s\n returned %v, want %v (limit %d)", tc.query, res.Rows, tc.want, tc.limit)
				}
				if res.Stats.Subqueries != tc.subqueries || res.Stats.IntermediateRows != tc.intermediate {
					t.Errorf("%s\n ran as %d subqueries shipping %d rows, want %d and %d", tc.query,
						res.Stats.Subqueries, res.Stats.IntermediateRows, tc.subqueries, tc.intermediate)
				}
			}
		})
	}
}

// TestFiveSharedColumnJoinEndToEnd joins two subqueries on five shared
// variables — a key wider than the four columns that once fit a packed
// map key, so it used to take a string-key path that no longer exists —
// and checks the answer against the model's. The query
// walks one five-vertex chain by hot properties and again by cold ones:
// the hot walk is a pattern subquery, the cold walk the cold subquery, and
// both bind all five vertices.
func TestFiveSharedColumnJoinEndToEnd(t *testing.T) {
	const chains = 60
	var nt strings.Builder
	add := func(s, p, o string) { fmt.Fprintf(&nt, "<%s> <%s> <%s> .\n", s, p, o) }
	node := func(chain, k int) string { return fmt.Sprintf("n%d_%d", chain, k) }
	for c := 0; c < chains; c++ {
		for k := 0; k < 4; k++ {
			add(node(c, k), fmt.Sprintf("hot%d", k), node(c, k+1))
			// Two chains in three have the whole cold walk, the others
			// lose one link of it or have it lead into the next chain.
			switch {
			case c%3 != 2:
				add(node(c, k), fmt.Sprintf("cold%d", k), node(c, k+1))
			case k != c%4:
				add(node(c, k), fmt.Sprintf("cold%d", k), node(c, k+1))
			default:
				add(node(c, k), fmt.Sprintf("cold%d", k), node((c+1)%chains, k+1))
			}
		}
		// A second way from the chain's head, so a key repeats in a column.
		add(node(c, 0), "hot0", node((c+7)%chains, 1))
		add(node(c, 0), "cold0", node((c+7)%chains, 1))
	}
	hotWalk := `?a <hot0> ?b . ?b <hot1> ?c . ?c <hot2> ?d . ?d <hot3> ?e .`
	query := `SELECT ?a ?b ?c ?d ?e WHERE { ` + hotWalk + ` ?a <cold0> ?b . ?b <cold1> ?c . ?c <cold2> ?d . ?d <cold3> ?e . }`

	want := modelRows(t, modelOf(t, nt.String()), query)
	if len(want) < chains/2 || len(want) >= 2*chains {
		t.Fatalf("the model finds %d walks; the fixture should have about %d", len(want), chains)
	}

	workload := make([]string, 10)
	for i := range workload {
		workload[i] = `SELECT ?a ?e WHERE { ` + hotWalk + ` }`
	}
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			db := Open(Config{Strategy: strategy, Sites: 3, MinSupport: 0.5})
			if _, err := db.LoadNTriples(strings.NewReader(nt.String())); err != nil {
				t.Fatalf("LoadNTriples: %v", err)
			}
			dep, err := db.Deploy(workload)
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			ex, err := dep.Explain(query)
			if err != nil {
				t.Fatalf("Explain: %v", err)
			}
			if kinds := []string{ex.Subqueries[0].Kind, ex.Subqueries[len(ex.Subqueries)-1].Kind}; len(ex.Subqueries) != 2 || !slices.Contains(kinds, "pattern") || !slices.Contains(kinds, "cold") {
				t.Fatalf("the query should run as the hot walk and the cold walk, five shared variables between them; it runs as\n%v", ex)
			}
			res, err := dep.Query(query)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if got := sortedRows(res); !slices.Equal(got, want) {
				t.Errorf("the join on five columns returned %d rows, the model %d:\n%v\n%v", len(got), len(want), got, want)
			}
		})
	}
}
