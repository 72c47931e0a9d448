package exec_test

import (
	"slices"
	"testing"

	"rdffrag/internal/decompose"
	"rdffrag/internal/sparql"
)

// colocateQueries join the fixture's workload patterns with each other,
// with themselves, with a cold property and through a predicate variable,
// projected narrowly, fully, by SELECT * and with ORDER BY.
var colocateQueries = []string{
	`SELECT ?x ?y WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?y <name> ?m . ?y <mainInterest> ?i . }`,
	`SELECT * WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?y <name> ?m . ?y <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . }`,
	`SELECT ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . } ORDER BY ?k`,
	`SELECT ?x ?y WHERE { ?x <name> ?n . ?x <influencedBy> ?y . ?y <name> ?m . ?y <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?x <viaf> ?v . }`,
	`SELECT ?x ?p WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?x ?p ?o . }`,
	`SELECT ?i WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?y <name> ?m . ?y <mainInterest> <Interest3> . }`,
}

// TestBindMergesColocatedSubqueries: under either fragmentation, binding
// a query leaves no two subqueries that share a variable and whose
// relevant fragments all sit on one site — cold and global ones aside —
// merges only such subqueries, marks in each subquery's Keep exactly the
// vertices the rest of the query reads, and answers what the model does.
// At least one of the queries must merge, or the test would pass with
// the merge gone.
func TestBindMergesColocatedSubqueries(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		e, env := newEngine(t, horizontal)
		merged := 0
		for _, qs := range colocateQueries {
			q := sparql.MustParse(env.G.Dict, qs)
			s, err := e.Shape(q)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := s.Bind(q)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := e.Bind(s, q)
			if err != nil {
				t.Fatal(err)
			}
			subs := prep.Dcp.Subqueries
			if len(subs) < len(parts.Subqueries) {
				merged++
			}
			var covered []int
			for i, sq := range subs {
				covered = append(covered, sq.EdgeIdx...)
				isPart := func(p *decompose.Subquery) bool { return slices.Equal(p.EdgeIdx, sq.EdgeIdx) }
				if !slices.ContainsFunc(parts.Subqueries, isPart) && siteOf(sq) < 0 {
					t.Errorf("%s: merged subquery %s reads fragments of several sites", qs, sq.Graph)
				}
				for j, other := range subs[i+1:] {
					if siteOf(sq) >= 0 && siteOf(sq) == siteOf(other) && shareVar(sq.Graph, other.Graph) {
						t.Errorf("%s: subqueries %d and %d share a variable and site %d, yet were not merged", qs, i, i+1+j, siteOf(sq))
					}
				}
				for v, vert := range sq.Graph.Verts {
					if !vert.IsVar() {
						continue
					}
					if want := readElsewhere(q, subs, i, vert.Var); (sq.Keep == nil || sq.Keep.Has(v)) != want {
						t.Errorf("%s: subquery %s keeps ?%s: %v, want %v", qs, sq.Graph, vert.Var, !want, want)
					}
				}
			}
			slices.Sort(covered)
			if len(covered) != len(q.Edges) || slices.Compact(covered)[len(covered)-1] != len(q.Edges)-1 {
				t.Errorf("%s: subqueries cover edges %v", qs, covered)
			}
			got, _, err := e.QueryPrepared(t.Context(), q, prep)
			if err != nil {
				t.Fatal(err)
			}
			if !answersLikeModel(got, q, env.G) {
				t.Errorf("%s: %d rows, not the model's answer", qs, got.Len())
			}
		}
		if merged == 0 {
			t.Errorf("horizontal %v: no query merged its co-located subqueries", horizontal)
		}
	}
}

// siteOf is the one site of a hot pattern subquery's relevant
// fragments, or -1.
func siteOf(sq *decompose.Subquery) int {
	if sq.Cold || sq.Global || len(sq.Relevant) == 0 {
		return -1
	}
	for _, entry := range sq.Relevant {
		if entry.Site != sq.Relevant[0].Site {
			return -1
		}
	}
	return sq.Relevant[0].Site
}

func shareVar(a, b *sparql.Graph) bool {
	for _, v := range a.Vars() {
		if slices.Contains(b.Vars(), v) {
			return true
		}
	}
	return false
}

// readElsewhere reports whether q reads variable name of subquery i
// beyond it: SELECT * or its projection, ORDER BY, another subquery.
func readElsewhere(q *sparql.Graph, subs []*decompose.Subquery, i int, name string) bool {
	if len(q.Select) == 0 || slices.Contains(q.Select, name) {
		return true
	}
	for _, k := range q.OrderBy {
		if k.Var == name {
			return true
		}
	}
	for j, sq := range subs {
		if j != i && slices.Contains(sq.Graph.Vars(), name) {
			return true
		}
	}
	return false
}
