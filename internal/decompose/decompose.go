// Package decompose implements query decomposition (Section 7.2,
// Algorithm 3): a SPARQL query is split into subqueries that each map to a
// selected frequent access pattern, or — for infrequent properties — into
// connected cold subqueries. Among all valid decompositions (Definition
// 15) the one minimizing the worst-case join cost Π card(qi) is chosen.
//
// The work is split the way the paper's workload model splits a query:
// which subqueries are possible depends on the query's shape alone
// (Shape, computed once per distinct structure and safe to cache), which
// of them is cheapest depends on its constants and on the statistics of
// the moment (Bind, run for every query).
package decompose

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rdffrag/internal/dict"
	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/sparql"
)

// Subquery is one piece of a decomposition.
type Subquery struct {
	// Graph is the subquery itself (with the original constants).
	Graph *sparql.Graph
	// EdgeIdx lists the covered edge indices of the original query. The
	// slice belongs to the query's Shape and is shared by every
	// decomposition bound from it; do not modify it.
	EdgeIdx []int
	// PatternCode is the canonical code of the matching selected pattern
	// ("" for cold subqueries, for several merged into one by
	// exec.Engine.Bind, and for global ones but a WARP pattern cover's).
	PatternCode string
	// Cold marks an all-infrequent-property subquery evaluated on the
	// cold fragment.
	Cold bool
	// Global marks a subquery that must consult every fragment: here,
	// one whose variable predicates may match hot and cold edges alike;
	// in internal/baseline, every subquery, since a SHAPE or WARP
	// placement may hold a match at any site.
	Global bool
	// Card is the estimated result cardinality from the data dictionary.
	Card int
	// Relevant lists, for a pattern subquery, the dictionary entries of
	// the fragments its constants leave relevant (the pruning of Sections
	// 5.1/5.2) — what the engine routes by. Bind always sets it, to an
	// empty non-nil slice when every fragment is pruned; nil on a
	// pattern subquery means it never went through Bind.
	Relevant []*dict.Entry
	// Keep marks the vertices of Graph whose bindings the rest of the
	// query reads: its projection and ORDER BY, and the variables it
	// shares with other subqueries (match.Options.Keep). The engine sets
	// it when it binds a query (exec.Engine.Bind); nil keeps every vertex.
	Keep match.VertexMask
}

// Decomposition is a valid decomposition with its estimated cost.
type Decomposition struct {
	Subqueries []*Subquery
	// Cost is Π card(qi), the worst-case join cost of Section 7.2.
	Cost float64
}

// Decomposer holds the inputs shared across queries.
type Decomposer struct {
	Dict *dict.Dictionary
	HC   *fragment.HotCold
	// Naive disables the cost-based search: every hot edge becomes its
	// own single-edge subquery (the always-valid decomposition the paper
	// mentions). Exists for the decomposition ablation.
	Naive bool
}

// Decompose enumerates the valid decompositions of q and returns the one
// with the smallest cost. Queries are expected to be small (≤ ~12 edges);
// enumeration is exact per the paper's brute-force argument.
func (d *Decomposer) Decompose(q *sparql.Graph) (*Decomposition, error) {
	s, err := d.Shape(q)
	if err != nil {
		return nil, err
	}
	return s.Bind(q)
}

// Shape is the constant-free skeleton of a query's decompositions:
// everything Algorithm 3 derives from the edges over parse-order vertex
// numbers, the predicates, and which vertices are constants — not from
// the constants' values or the variables' names. A Shape is immutable
// and may bind any number of queries of its structure concurrently.
type Shape struct {
	dict *dict.Dictionary
	// edges and consts record the structure the shape was built from, so
	// Bind can refuse a query that does not have it.
	edges  []sparql.Edge
	consts []bool
	// fixed are the cold and global connected components, each one
	// subquery of every decomposition.
	fixed []component
	// hot lists the frequent-property edges in ascending order; blocks
	// are the candidate subqueries over them and covering[e] the blocks
	// containing edge e in the order the search tries them.
	hot      []int
	blocks   []block
	covering [][]int
}

// component is a connected group of cold or of variable-predicate edges.
type component struct {
	edges  []int
	global bool
}

// block is a candidate subquery: an edge set of the query covered by one
// selected pattern.
type block struct {
	edges []int
	code  string
	card  dict.CardShape
	// embeds[i] holds, for the fragment of card.Entries[i], every
	// embedding of its pattern into the block as a map from pattern
	// vertex to query vertex: what Fragment.RelevantTo enumerates, with
	// the positions of the constants a minterm is checked against.
	embeds [][][]int
}

// relevant is Fragment.RelevantTo for entry i against q's constants.
func (b *block) relevant(q *sparql.Graph, i int) bool {
	return b.card.Entries[i].Fragment.CompatibleWithAny(q, b.embeds[i])
}

// Shape computes the decomposition skeleton of q's structure.
func (d *Decomposer) Shape(q *sparql.Graph) (*Shape, error) {
	if len(q.Edges) == 0 {
		return nil, fmt.Errorf("decompose: empty query")
	}
	s := &Shape{
		dict:     d.Dict,
		edges:    append([]sparql.Edge(nil), q.Edges...),
		consts:   make([]bool, len(q.Verts)),
		covering: make([][]int, len(q.Edges)),
	}
	for i, v := range q.Verts {
		s.consts[i] = !v.IsVar()
	}

	// Partition edges: hot (frequent property), cold (infrequent), and
	// global (variable predicate).
	var coldIdx, globalIdx []int
	isHot := make([]bool, len(q.Edges))
	for i, e := range q.Edges {
		switch {
		case e.IsPredVar():
			globalIdx = append(globalIdx, i)
		case d.HC.FreqProps[e.Pred]:
			s.hot = append(s.hot, i)
			isHot[i] = true
		default:
			coldIdx = append(coldIdx, i)
		}
	}

	// Fixed part: cold edges form subqueries per connected component of
	// the cold-only subgraph; likewise global edges.
	s.fixed = append(components(q, coldIdx, false), components(q, globalIdx, true)...)

	// Candidate blocks over hot edges: for every selected pattern, every
	// edge set of q it covers (restricted to hot edges). The naive
	// decomposition's candidates are the hot edges themselves.
	if d.Naive {
		for _, ei := range s.hot {
			s.addBlock(q, []int{ei}, "")
		}
	} else {
		for _, p := range d.Dict.Patterns() {
			for _, es := range sparql.CoveredEdgeSets(p.Graph, q) {
				ok := true
				for _, ei := range es {
					if !isHot[ei] {
						ok = false
						break
					}
				}
				if ok {
					s.addBlock(q, es, p.Code)
				}
			}
		}
	}

	for bi, b := range s.blocks {
		for _, e := range b.edges {
			s.covering[e] = append(s.covering[e], bi)
		}
	}
	// Verify every hot edge has at least one block (one-edge patterns
	// guarantee this when selection ran with integrity).
	for _, ei := range s.hot {
		if len(s.covering[ei]) == 0 {
			return nil, fmt.Errorf("decompose: hot edge %d (property %v) has no covering pattern", ei, q.Edges[ei].Pred)
		}
		// Prefer larger blocks first: they shrink the cost fastest under
		// the branch-and-bound, and match the paper's larger-pattern
		// preference.
		bs := s.covering[ei]
		sort.SliceStable(bs, func(i, j int) bool {
			a, b := s.blocks[bs[i]].edges, s.blocks[bs[j]].edges
			if len(a) != len(b) {
				return len(a) > len(b)
			}
			return less(a, b)
		})
	}
	return s, nil
}

// addBlock records the candidate subquery over q's edges es, unless it
// maps to no dictionary pattern. An empty code stands for the block's own
// canonical code.
func (s *Shape) addBlock(q *sparql.Graph, es []int, code string) {
	sub := q.EdgeSubgraph(es)
	cs, mapped := s.dict.CardShape(sub)
	if !mapped {
		return
	}
	if code == "" {
		code = cs.Code
	}
	// sub's vertices are q's, renumbered; find each one's number in q.
	inQ := make([]int, len(sub.Verts))
	for i, v := range sub.Verts {
		for j, u := range q.Verts {
			if u == v {
				inQ[i] = j
				break
			}
		}
	}
	b := block{edges: es, code: code, card: cs, embeds: make([][][]int, len(cs.Entries))}
	for i, e := range cs.Entries {
		p := e.Fragment.Pattern
		if i > 0 && p == cs.Entries[i-1].Fragment.Pattern {
			b.embeds[i] = b.embeds[i-1] // the fragments of one pattern share its embeddings
			continue
		}
		for _, emb := range sparql.FindEmbeddings(p.Graph, sub, 0) {
			m := make([]int, len(emb.VertexMap))
			for pv, sv := range emb.VertexMap {
				m[pv] = inQ[sv]
			}
			b.embeds[i] = append(b.embeds[i], m)
		}
	}
	s.blocks = append(s.blocks, b)
}

// components groups the given edges of q into connected components, each
// becoming one cold/global subquery.
func components(q *sparql.Graph, idx []int, global bool) []component {
	if len(idx) == 0 {
		return nil
	}
	comps := q.EdgeSubgraph(idx).ConnectedComponents()
	out := make([]component, len(comps))
	for i, compEdges := range comps {
		orig := make([]int, len(compEdges))
		for j, ce := range compEdges {
			orig[j] = idx[ce]
		}
		out[i] = component{edges: orig, global: global}
	}
	return out
}

func less(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// matches reports whether q has the structure the shape was built from.
func (s *Shape) matches(q *sparql.Graph) bool {
	if len(q.Edges) != len(s.edges) || len(q.Verts) != len(s.consts) {
		return false
	}
	for i, v := range q.Verts {
		if v.IsVar() == s.consts[i] {
			return false
		}
	}
	for i, e := range q.Edges {
		w := s.edges[i]
		if e.From != w.From || e.To != w.To || e.IsPredVar() != w.IsPredVar() || (!e.IsPredVar() && e.Pred != w.Pred) {
			return false
		}
	}
	return true
}

// Bind decomposes q, a query of the shape's structure: it reads q's
// constants where the fragments' minterms constrain them, estimates every
// candidate subquery from the dictionary's current statistics, picks the
// exact cover of the hot edges with the smallest Π card, and builds the
// subqueries from q itself — so the variable names and constants are the
// caller's and the estimates are today's, whenever the shape was built.
func (s *Shape) Bind(q *sparql.Graph) (*Decomposition, error) {
	if !s.matches(q) {
		return nil, fmt.Errorf("decompose: query %s does not have the shape it is bound to", q)
	}
	nb, nh := len(s.blocks), len(s.hot)
	ints := make([]int, nb+2*nh)
	se := search{
		shape:  s,
		cards:  ints[:nb],
		chosen: ints[nb : nb : nb+nh],
		best:   ints[nb+nh : nb+nh],
		used:   make([]bool, len(s.edges)),
	}
	for bi := range s.blocks {
		b := &s.blocks[bi]
		se.cards[bi] = b.card.Estimate(func(i int) bool { return b.relevant(q, i) })
	}

	subs := make([]Subquery, len(s.fixed))
	cost := 1.0
	for i, c := range s.fixed {
		sg := q.EdgeSubgraph(c.edges)
		subs[i] = Subquery{Graph: sg, EdgeIdx: c.edges, Cold: !c.global, Global: c.global, Card: s.dict.EstimateColdCard(sg)}
		cost *= float64(subs[i].Card)
	}

	// Exact-cover search over hot edges minimizing Π card.
	se.rec(cost)
	if !se.found {
		return nil, fmt.Errorf("decompose: no valid decomposition found")
	}
	if math.IsInf(se.bestCost, 1) {
		return nil, fmt.Errorf("decompose: cost overflow")
	}
	subs = slices.Grow(subs, len(se.best)) // the cover's size, not the hot edges' count
	for _, bi := range se.best {
		b := &s.blocks[bi]
		rel := make([]*dict.Entry, 0, len(b.card.Entries))
		for i, e := range b.card.Entries {
			if b.relevant(q, i) {
				rel = append(rel, e)
			}
		}
		subs = append(subs, Subquery{
			Graph:       q.EdgeSubgraph(b.edges),
			EdgeIdx:     b.edges,
			PatternCode: b.code,
			Card:        se.cards[bi],
			Relevant:    rel,
		})
	}
	dcp := &Decomposition{Cost: se.bestCost, Subqueries: make([]*Subquery, len(subs))}
	for i := range subs {
		dcp.Subqueries[i] = &subs[i]
	}
	return dcp, nil
}

// search is the branch-and-bound state of one Bind.
type search struct {
	shape *Shape
	cards []int  // per block, this query's estimate
	used  []bool // per query edge: covered by a chosen block
	// chosen is the partial cover being extended, best the cheapest
	// complete one so far, both as block indices.
	chosen, best []int
	bestCost     float64
	found        bool
}

func (se *search) rec(costSoFar float64) {
	if se.found && costSoFar >= se.bestCost {
		return // branch and bound: cards are >= 1 so cost only grows
	}
	// Find the lowest uncovered hot edge.
	next := -1
	for _, ei := range se.shape.hot {
		if !se.used[ei] {
			next = ei
			break
		}
	}
	if next == -1 {
		se.best = append(se.best[:0], se.chosen...)
		se.bestCost, se.found = costSoFar, true
		return
	}
	// Every block that includes edge next, not only those whose smallest
	// edge it is.
	for _, bi := range se.shape.covering[next] {
		edges := se.shape.blocks[bi].edges
		overlap := false
		for _, e := range edges {
			if se.used[e] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, e := range edges {
			se.used[e] = true
		}
		se.chosen = append(se.chosen, bi)
		se.rec(costSoFar * float64(se.cards[bi]))
		se.chosen = se.chosen[:len(se.chosen)-1]
		for _, e := range edges {
			se.used[e] = false
		}
	}
}
