package decompose_test

import (
	"fmt"
	"math"
	"sort"

	"rdffrag/internal/decompose"
	"rdffrag/internal/mining"
	"rdffrag/internal/sparql"
)

// oracleDecompose is Decompose as it stood before the shape/bind split —
// one pass that re-derives everything from the query in hand, with
// dict.EstimateCard and Fragment.RelevantTo running subgraph isomorphism
// per candidate — kept as the reference the split is compared against. It
// leaves Subquery.Relevant nil; oracleRoute supplies the routing.
func oracleDecompose(d *decompose.Decomposer, q *sparql.Graph) (*decompose.Decomposition, error) {
	if len(q.Edges) == 0 {
		return nil, fmt.Errorf("decompose: empty query")
	}

	// Partition edges: hot (frequent property), cold (infrequent), and
	// global (variable predicate).
	var hotIdx, coldIdx, globalIdx []int
	for i, e := range q.Edges {
		switch {
		case e.IsPredVar():
			globalIdx = append(globalIdx, i)
		case d.HC.FreqProps[e.Pred]:
			hotIdx = append(hotIdx, i)
		default:
			coldIdx = append(coldIdx, i)
		}
	}

	// Fixed part: cold edges form subqueries per connected component of
	// the cold-only subgraph; likewise global edges.
	fixed := oracleFixed(d, q, coldIdx, false)
	fixed = append(fixed, oracleFixed(d, q, globalIdx, true)...)

	if d.Naive {
		return oracleNaive(d, q, hotIdx, fixed)
	}

	// Candidate blocks over hot edges: for every selected pattern, every
	// edge set of q it covers (restricted to hot edges).
	hotSet := make(map[int]bool, len(hotIdx))
	for _, i := range hotIdx {
		hotSet[i] = true
	}
	blockAt := make(map[int][]blockT)
	for _, p := range d.Dict.Patterns() {
		for _, es := range sparql.CoveredEdgeSets(p.Graph, q) {
			ok := true
			for _, ei := range es {
				if !hotSet[ei] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			sub := q.EdgeSubgraph(es)
			card, mapped := d.Dict.EstimateCard(sub)
			if !mapped {
				continue
			}
			b := blockT{edges: es, code: p.Code, card: card}
			blockAt[es[0]] = append(blockAt[es[0]], b)
		}
	}

	// Verify every hot edge has at least one block (one-edge patterns
	// guarantee this when selection ran with integrity).
	cover := make(map[int]bool)
	for _, bs := range blockAt {
		for _, b := range bs {
			for _, e := range b.edges {
				cover[e] = true
			}
		}
	}
	for _, ei := range hotIdx {
		if !cover[ei] {
			return nil, fmt.Errorf("decompose: hot edge %d (property %v) has no covering pattern", ei, q.Edges[ei].Pred)
		}
	}

	// Exact-cover search over hot edges minimizing Π card.
	sort.Ints(hotIdx)
	var best *decompose.Decomposition
	used := make(map[int]bool, len(hotIdx))
	var chosen []blockT

	fixedCost := 1.0
	for _, s := range fixed {
		fixedCost *= float64(s.Card)
	}

	var rec func(costSoFar float64)
	rec = func(costSoFar float64) {
		if best != nil && costSoFar >= best.Cost {
			return // branch and bound: cards are >= 1 so cost only grows
		}
		// Find the lowest uncovered hot edge.
		next := -1
		for _, ei := range hotIdx {
			if !used[ei] {
				next = ei
				break
			}
		}
		if next == -1 {
			dcp := &decompose.Decomposition{Cost: costSoFar}
			dcp.Subqueries = append(dcp.Subqueries, fixed...)
			for _, b := range chosen {
				dcp.Subqueries = append(dcp.Subqueries, &decompose.Subquery{
					Graph:       q.EdgeSubgraph(b.edges),
					EdgeIdx:     append([]int(nil), b.edges...),
					PatternCode: b.code,
					Card:        b.card,
				})
			}
			if best == nil || dcp.Cost < best.Cost {
				best = dcp
			}
			return
		}
		for _, b := range blocksContaining(blockAt, next) {
			overlap := false
			for _, e := range b.edges {
				if used[e] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			for _, e := range b.edges {
				used[e] = true
			}
			chosen = append(chosen, b)
			rec(costSoFar * float64(b.card))
			chosen = chosen[:len(chosen)-1]
			for _, e := range b.edges {
				used[e] = false
			}
		}
	}

	// blocksContaining needs every block that includes edge `next`, not
	// only those whose smallest edge is `next`.
	rec(fixedCost)
	if best == nil {
		return nil, fmt.Errorf("decompose: no valid decomposition found")
	}
	if math.IsInf(best.Cost, 1) {
		return nil, fmt.Errorf("decompose: cost overflow")
	}
	return best, nil
}

// blockT is a candidate subquery: an edge set of the query covered by one
// selected pattern, with its estimated cardinality.
type blockT struct {
	edges []int
	code  string
	card  int
}

func blocksContaining(blockAt map[int][]blockT, edge int) []blockT {
	var out []blockT
	for _, bs := range blockAt {
		for _, b := range bs {
			for _, e := range b.edges {
				if e == edge {
					out = append(out, b)
					break
				}
			}
		}
	}
	// Prefer larger blocks first: they shrink the cost fastest under the
	// branch-and-bound, and match the paper's larger-pattern preference.
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].edges) != len(out[j].edges) {
			return len(out[i].edges) > len(out[j].edges)
		}
		return less(out[i].edges, out[j].edges)
	})
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

// oracleNaive builds the decomposition of all single-edge subqueries.
func oracleNaive(d *decompose.Decomposer, q *sparql.Graph, hotIdx []int, fixed []*decompose.Subquery) (*decompose.Decomposition, error) {
	dcp := &decompose.Decomposition{Cost: 1}
	dcp.Subqueries = append(dcp.Subqueries, fixed...)
	for _, s := range fixed {
		dcp.Cost *= float64(s.Card)
	}
	for _, ei := range hotIdx {
		sub := q.EdgeSubgraph([]int{ei})
		card, ok := d.Dict.EstimateCard(sub)
		if !ok {
			return nil, fmt.Errorf("decompose: hot edge %d has no one-edge pattern", ei)
		}
		code := mining.CanonicalCode(sub.Generalize())
		dcp.Subqueries = append(dcp.Subqueries, &decompose.Subquery{
			Graph:       sub,
			EdgeIdx:     []int{ei},
			PatternCode: code,
			Card:        card,
		})
		dcp.Cost *= float64(card)
	}
	if len(dcp.Subqueries) == 0 {
		return nil, fmt.Errorf("decompose: empty decomposition")
	}
	return dcp, nil
}

// oracleFixed groups the given edges into connected components, each
// becoming one cold/global subquery.
func oracleFixed(d *decompose.Decomposer, q *sparql.Graph, idx []int, global bool) []*decompose.Subquery {
	if len(idx) == 0 {
		return nil
	}
	sub := q.EdgeSubgraph(idx)
	comps := sub.ConnectedComponents()
	out := make([]*decompose.Subquery, 0, len(comps))
	for _, compEdges := range comps {
		orig := make([]int, len(compEdges))
		for i, ce := range compEdges {
			orig[i] = idx[ce]
		}
		sg := q.EdgeSubgraph(orig)
		s := &decompose.Subquery{Graph: sg, EdgeIdx: orig, Cold: !global, Global: global}
		if global {
			s.Card = d.Dict.EstimateColdCard(sg) // coarse: variable predicates
		} else {
			s.Card = d.Dict.EstimateColdCard(sg)
		}
		out = append(out, s)
	}
	return out
}
