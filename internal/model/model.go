// Package model is the reference the store is checked against: what a
// sequence of update batches leaves in the graph, and what a query over it
// answers, each stated as plainly as it can be.
//
// Updates. A Store is a set of triples with a dictionary of its own. Each
// batch is one transition and commits whole, in sequence: its delete side
// goes first, then its insert side, so a batch that deletes and inserts
// one triple keeps it. A duplicate insert adds nothing, and deleting an
// absent triple removes nothing. Every insert of a triple, a duplicate
// too, sets its deadline to the batch's, or clears it if the batch has
// none: the latest write decides. The model never reads the clock:
// Sweep(now) deletes, as one batch, every triple due at now.
//
// Answers. An answer is a set of rows: the pattern's matches — every edge
// mapped to a triple, vertex and predicate variables each bound to one
// term — projected onto the SELECT list, then made distinct, with or
// without DISTINCT (ROADMAP item 4 keeps set semantics; SPARQL 1.1 would
// keep a row per match of a plain SELECT). A projected variable the
// pattern does not bind is left out of the header; SELECT * projects onto
// every variable in sorted order. ORDER BY and LIMIT are not modelled.
package model

import (
	"maps"
	"slices"
	"strings"
	"time"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Batch is one update; Deadline (zero: none) stamps the inserted triples.
type Batch struct {
	Del, Ins []rdf.Triple
	Deadline time.Time
}

// Store is the naive triple set.
type Store struct {
	dict     *rdf.Dict
	deadline map[rdf.Triple]time.Time // every triple held; zero: no deadline
}

// New returns an empty store.
func New() *Store { return &Store{dict: rdf.NewDict(), deadline: map[rdf.Triple]time.Time{}} }

// Parse reads an N-Triples document into triples of the store's
// dictionary, interning every term it names.
func (s *Store) Parse(doc string) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	err := rdf.ScanNTriples(strings.NewReader(doc), func(sub, p, o rdf.Term) error {
		ts = append(ts, rdf.Triple{S: s.dict.Encode(sub), P: s.dict.Encode(p), O: s.dict.Encode(o)})
		return nil
	})
	return ts, err
}

// Apply applies b and reports how many triples it added and deleted.
func (s *Store) Apply(b Batch) (added, deleted int) {
	for _, t := range b.Del {
		if _, ok := s.deadline[t]; ok {
			delete(s.deadline, t)
			deleted++
		}
	}
	for _, t := range b.Ins {
		if _, ok := s.deadline[t]; !ok {
			added++
		}
		s.deadline[t] = b.Deadline
	}
	return added, deleted
}

// Due lists the triples whose deadline is at or before now.
func (s *Store) Due(now time.Time) []rdf.Triple {
	var due []rdf.Triple
	for t, at := range s.deadline {
		if !at.IsZero() && !at.After(now) {
			due = append(due, t)
		}
	}
	return due
}

// Sweep deletes the triples due at now and reports how many.
func (s *Store) Sweep(now time.Time) int {
	_, n := s.Apply(Batch{Del: s.Due(now)})
	return n
}

// Len is the number of triples held.
func (s *Store) Len() int { return len(s.deadline) }

// Pending is the number of triples held with a deadline.
func (s *Store) Pending() int {
	n := 0
	for _, at := range s.deadline {
		if !at.IsZero() {
			n++
		}
	}
	return n
}

// Answer parses query against the store's dictionary and answers it.
func (s *Store) Answer(query string) (*Table, error) {
	q, err := sparql.NewParser(s.dict).Parse(query)
	if err != nil {
		return nil, err
	}
	return Answer(q, slices.Collect(maps.Keys(s.deadline))), nil
}

// Text renders t's rows in N-Triples, cells tab-separated, sorted.
func (s *Store) Text(t *Table) []string {
	out := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		cells := make([]string, len(row))
		for c, id := range row {
			cells[c] = s.dict.Decode(id).String()
		}
		out[i] = strings.Join(cells, "\t")
	}
	slices.Sort(out)
	return out
}

// Table is an answer: its header and its rows, distinct and sorted by ID.
type Table struct {
	Vars []string
	Rows [][]rdf.ID
}

// Flat lays the rows end to end.
func (t *Table) Flat() []rdf.ID { return slices.Concat(t.Rows...) }

// Answer answers q over the triples ts, joining the pattern edge by edge,
// in the query's order. An edge's candidates are the triples with its
// predicate and its subject, or its object, where the partial match binds
// that end; else those with its predicate; and every triple only where
// the predicate is a variable. Each candidate is then checked whole, so
// the lookup decides only how many triples are tried.
func Answer(q *sparql.Graph, ts []rdf.Triple) *Table {
	return answer(q, newIndex(ts).candidates)
}

// answer is Answer with candidates, given a partial match and an edge's
// slots, returning a superset of the triples the edge can map to.
func answer(q *sparql.Graph, candidates func(m map[string]rdf.ID, slots [3]sparql.Vertex) []rdf.Triple) *Table {
	matches := []map[string]rdf.ID{{}}
	for _, e := range q.Edges {
		slots := [3]sparql.Vertex{q.Verts[e.From], {Var: e.PredVar, Term: e.Pred}, q.Verts[e.To]}
		var next []map[string]rdf.ID
		for _, m := range matches {
			for _, t := range candidates(m, slots) {
				if ext, ok := extend(m, slots, [3]rdf.ID{t.S, t.P, t.O}); ok {
					next = append(next, ext)
				}
			}
		}
		matches = next
	}
	all, vars := q.Vars(), q.Vars()
	if len(q.Select) > 0 {
		vars = slices.DeleteFunc(slices.Clone(q.Select), func(v string) bool { return !slices.Contains(all, v) })
	}
	rows := make([][]rdf.ID, len(matches))
	for i, m := range matches {
		for _, v := range vars {
			rows[i] = append(rows[i], m[v])
		}
	}
	slices.SortFunc(rows, slices.Compare)
	return &Table{Vars: vars, Rows: slices.CompactFunc(rows, slices.Equal)}
}

// index lists triples by predicate, by (predicate, subject) and by
// (predicate, object).
type index struct {
	all  []rdf.Triple
	byP  map[rdf.ID][]rdf.Triple
	byPS map[[2]rdf.ID][]rdf.Triple
	byPO map[[2]rdf.ID][]rdf.Triple
}

func newIndex(ts []rdf.Triple) *index {
	ix := &index{all: ts, byP: map[rdf.ID][]rdf.Triple{}, byPS: map[[2]rdf.ID][]rdf.Triple{}, byPO: map[[2]rdf.ID][]rdf.Triple{}}
	for _, t := range ts {
		ix.byP[t.P] = append(ix.byP[t.P], t)
		ix.byPS[[2]rdf.ID{t.P, t.S}] = append(ix.byPS[[2]rdf.ID{t.P, t.S}], t)
		ix.byPO[[2]rdf.ID{t.P, t.O}] = append(ix.byPO[[2]rdf.ID{t.P, t.O}], t)
	}
	return ix
}

// candidates returns the triples an edge whose slots are subject,
// predicate and object can map to under m, and perhaps others.
func (ix *index) candidates(m map[string]rdf.ID, slots [3]sparql.Vertex) []rdf.Triple {
	if slots[1].Var != "" {
		return ix.all
	}
	p := slots[1].Term
	if s, ok := value(m, slots[0]); ok {
		return ix.byPS[[2]rdf.ID{p, s}]
	}
	if o, ok := value(m, slots[2]); ok {
		return ix.byPO[[2]rdf.ID{p, o}]
	}
	return ix.byP[p]
}

// value returns what slot s stands for under m: its constant, or its
// variable's binding.
func value(m map[string]rdf.ID, s sparql.Vertex) (rdf.ID, bool) {
	if s.Var == "" {
		return s.Term, true
	}
	id, ok := m[s.Var]
	return id, ok
}

// extend returns m extended so the slots — variables, or constants where
// Var is empty — map to ids, or false if a constant or a binding of m
// differs. m is never written: a match binding something new is a copy.
func extend(m map[string]rdf.ID, slots [3]sparql.Vertex, ids [3]rdf.ID) (map[string]rdf.ID, bool) {
	ext, copied := m, false
	for i, s := range slots {
		id, bound := ext[s.Var]
		switch {
		case s.Var == "":
			if s.Term != ids[i] {
				return nil, false
			}
		case bound:
			if id != ids[i] {
				return nil, false
			}
		case !copied:
			ext, copied = maps.Clone(m), true
			fallthrough
		default:
			ext[s.Var] = ids[i]
		}
	}
	return ext, true
}
