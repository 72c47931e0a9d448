package model

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// TestBatchSemantics: the delete side goes first, a duplicate adds
// nothing, an absent triple deletes nothing, the latest write of a triple
// sets or clears its deadline, a delete drops it, and a sweep deletes
// what is due.
func TestBatchSemantics(t *testing.T) {
	s := New()
	abc, err := s.Parse("<a> <p> <b> .\n<b> <p> \"c\" .\n<c> <q> <a> .")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := abc[:1], abc[1:2], abc[2:]
	at := func(h int) time.Time { return time.Unix(0, 0).Add(time.Duration(h) * time.Hour) }
	for i, step := range []struct {
		b                         Batch
		sweep                     int // at that many hours; 0: apply b
		added, deleted, len, pend int
	}{
		{b: Batch{Ins: slices.Concat(a, b, a)}, added: 2, len: 2},
		{b: Batch{Ins: a, Deadline: at(1)}, len: 2, pend: 1},
		{b: Batch{Del: c}, len: 2, pend: 1},
		{b: Batch{Del: b, Ins: b, Deadline: at(2)}, added: 1, deleted: 1, len: 2, pend: 2},
		{b: Batch{Ins: c, Deadline: at(3)}, added: 1, len: 3, pend: 3},
		{b: Batch{Ins: c}, len: 3, pend: 2},
		{sweep: 1, deleted: 1, len: 2, pend: 1},
		{sweep: 1, len: 2, pend: 1},
		{b: Batch{Del: b}, deleted: 1, len: 1},
		{sweep: 3, len: 1},
	} {
		added, deleted := s.Apply(step.b)
		if step.sweep > 0 {
			added, deleted = 0, s.Sweep(at(step.sweep))
		}
		if added != step.added || deleted != step.deleted || s.Len() != step.len || s.Pending() != step.pend {
			t.Fatalf("step %d: added %d, deleted %d, holds %d, %d pending; want %d, %d, %d, %d",
				i, added, deleted, s.Len(), s.Pending(), step.added, step.deleted, step.len, step.pend)
		}
	}
	if got, _ := s.Answer(`SELECT * WHERE { ?s ?p ?o . }`); !slices.Equal(s.Text(got), []string{"<a>\t<q>\t<c>"}) {
		t.Errorf("holds %q, want <c> <q> <a> only", s.Text(got))
	}
	if _, err := s.Parse(`<a> <p> nonsense`); err == nil {
		t.Error("Parse accepted a malformed document")
	}
}

// TestAnswerSemantics: an answer is the set of the matches projected onto
// the SELECT list, predicate variables bound like vertex ones; a projected
// variable the pattern does not bind is left out, and SELECT * projects
// onto every variable in sorted order.
func TestAnswerSemantics(t *testing.T) {
	s := New()
	ts, err := s.Parse(`<a> <knows> <b> .
<a> <knows> <c> .
<b> <knows> <c> .
<c> <knows> <c> .
<a> <name> "A" .
<b> <name> "B" .
<b> <age> "7" .`)
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(Batch{Ins: ts})
	for _, tc := range []struct {
		query string
		vars  []string
		rows  []string
	}{
		{`SELECT ?x WHERE { ?x <knows> ?y . }`, []string{"x"}, []string{"<a>", "<b>", "<c>"}},
		{`SELECT DISTINCT ?x WHERE { ?x <knows> ?y . ?y <knows> <c> . }`, []string{"x"}, []string{"<a>", "<b>", "<c>"}},
		{`SELECT ?n ?x WHERE { ?x <name> ?n . ?x <knows> ?y . }`, []string{"n", "x"}, []string{"\"A\"\t<a>", "\"B\"\t<b>"}},
		{`SELECT ?x ?z WHERE { ?x <age> ?a . }`, []string{"x"}, []string{"<b>"}},
		{`SELECT * WHERE { ?x <knows> ?x . }`, []string{"x"}, []string{"<c>"}},
		{`SELECT * WHERE { <b> ?p ?o . }`, []string{"o", "p"}, []string{"\"7\"\t<age>", "\"B\"\t<name>", "<c>\t<knows>"}},
		{`SELECT ?p WHERE { ?x ?p ?o . ?o ?p "B" . }`, []string{"p"}, []string{}},
		{`SELECT ?p WHERE { ?x ?p ?o . ?o <name> "B" . }`, []string{"p"}, []string{"<knows>"}},
		{`SELECT * WHERE { <a> <knows> <b> . }`, []string{}, []string{""}},
		{`SELECT * WHERE { <b> <knows> <a> . }`, []string{}, []string{}},
	} {
		got, err := s.Answer(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if !slices.Equal(got.Vars, tc.vars) || !slices.Equal(s.Text(got), tc.rows) || len(got.Flat()) != len(got.Vars)*len(got.Rows) {
			t.Errorf("%s: %v %q, want %v %q", tc.query, got.Vars, s.Text(got), tc.vars, tc.rows)
		}
	}
	if _, err := s.Answer(`SELECT ?x WHERE { ?x <knows> }`); err == nil {
		t.Error("a malformed query answered")
	}
}

// answerByScan is the definition Answer is held to: every triple is a
// candidate of every edge under every partial match.
func answerByScan(q *sparql.Graph, ts []rdf.Triple) *Table {
	return answer(q, func(map[string]rdf.ID, [3]sparql.Vertex) []rdf.Triple { return ts })
}

// TestAnswerLooksUpWhatItScans: on small random graphs with self-loops,
// and patterns with constants, predicate variables and repeated
// variables, the indexed join answers what scanning every triple does.
func TestAnswerLooksUpWhatItScans(t *testing.T) {
	vertex := func(r *rand.Rand) sparql.Vertex {
		if r.Intn(4) == 0 {
			return sparql.Vertex{Term: rdf.ID(r.Intn(5))}
		}
		return sparql.Vertex{Var: string(rune('a' + r.Intn(4)))}
	}
	matched := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := make([]rdf.Triple, 5+r.Intn(30))
		for i := range ts {
			ts[i] = rdf.Triple{S: rdf.ID(r.Intn(5)), P: rdf.ID(10 + r.Intn(3)), O: rdf.ID(r.Intn(5))}
		}
		q := sparql.NewGraph()
		for i := 1 + r.Intn(4); i > 0; i-- {
			e := sparql.Edge{Pred: rdf.ID(10 + r.Intn(3))}
			if r.Intn(4) == 0 {
				e.PredVar = string(rune('p' + r.Intn(2)))
			}
			q.AddTriplePattern(vertex(r), e, vertex(r))
		}
		want, got := answerByScan(q, ts), Answer(q, ts)
		if len(want.Rows) > 0 {
			matched++
		}
		return slices.Equal(got.Vars, want.Vars) && slices.Equal(got.Flat(), want.Flat()) && len(got.Rows) == len(want.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if matched < 100 {
		t.Errorf("only %d of 500 patterns matched anything", matched)
	}
}
