// Package fap implements frequent access pattern selection (Section 4.1,
// Algorithm 1): choosing the subset of mined patterns that maximizes the
// workload benefit (Definitions 8–9) under a storage constraint. The
// problem is NP-hard (Theorem 1); this greedy selection carries the
// min{1/max|E(p)|, ½(1−1/e)} guarantee of Theorem 2.
//
// Selection needs each candidate's fragment size |E(⟦p⟧G)| and nothing
// else of its matches, so a candidate's edges are found once, into an
// rdf.EdgeSet — one bit per triple of the hot graph — and sized by the
// set's bit count. match.MatchedEdgesAll finds every candidate's set in
// one batch before the greedy loop, several candidates at once, each
// without producing a match when it is a tree with constant predicates,
// as mined patterns are: two semi-join passes over its vertices leave
// exactly what each binds, and the set is the triples between those. A
// pattern with a cycle or a predicate variable has its matches enumerated
// instead, as has any pattern over a graph with pending updates; the hot
// graph is built frozen, so none is. The greedy loop itself is sequential
// and reads only the sizes, so what it selects does not depend on the
// order the sets were found in. The sets of the patterns that end up
// selected stay on the Selection: they are the fragments' contents, and
// the fragmenters build from them instead of finding them again.
package fap

import (
	"fmt"
	"sort"

	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Selection is the outcome of Algorithm 1.
type Selection struct {
	// Patterns is the final selected set P' ∪ P1|P2, one-edge patterns
	// first. These become the vertical fragmentation units.
	Patterns []*mining.Pattern
	// OneEdge is the integrity subset: one single-edge pattern per
	// frequent property (every hot edge has at least one home).
	OneEdge []*mining.Pattern
	// Benefit is Benefit(Patterns, Q).
	Benefit int
	// TotalSize is Σ |E(⟦p⟧G)| over the selected patterns, in edges.
	TotalSize int
	// FragSize maps pattern code -> |E(⟦p⟧G)|, for every pattern Select
	// sized, selected or not.
	FragSize map[string]int

	// edges holds, per selected pattern's code, the matched edge set
	// Select sized it by: the fragmenters' input, until they release it.
	edges map[string]*rdf.EdgeSet
}

// MatchedEdges returns E(⟦p⟧G) over hot, a read view of the hot graph:
// the set Select left for p if it was taken over the same cut of that
// graph, a fresh match otherwise.
func (s *Selection) MatchedEdges(p *mining.Pattern, hot *rdf.Snapshot) *rdf.EdgeSet {
	if es := s.edges[p.Code]; es != nil && es.Of(hot) {
		return es
	}
	return match.MatchedEdges(p.Graph, hot, match.Options{})
}

// ReleaseEdges drops the edge sets Select left on the selection. The
// fragmenters call it once fragments exist, so that a deployment holding
// its Selection holds no per-pattern bitmaps.
func (s *Selection) ReleaseEdges() { s.edges = nil }

// Selector configures the selection.
type Selector struct {
	// StorageCapacity is SC, in edges. The paper assumes SC is at least
	// the hot graph size so every hot edge fits once; Select enforces
	// this and errors otherwise. 0 means 2×|E(hot)|.
	StorageCapacity int
}

// Select runs Algorithm 1 over the mined patterns, the workload and the
// hot graph.
func (s *Selector) Select(patterns []*mining.Pattern, workload []*sparql.Graph, hot *rdf.Graph) (*Selection, error) {
	sc := s.StorageCapacity
	if sc == 0 {
		sc = 2 * hot.NumTriples()
	}
	if sc < hot.NumTriples() {
		return nil, fmt.Errorf("fap: storage capacity %d below hot graph size %d; data integrity impossible", sc, hot.NumTriples())
	}

	uniq, weights := mining.Normalize(workload)

	// Offline pipeline: one read view of the hot graph serves the whole
	// selection pass.
	hsn := hot.Snapshot()
	defer hsn.Close()

	sel := &Selection{FragSize: make(map[string]int)}

	// use(Q, p) matrix over unique queries, weighted by multiplicity.
	contains := func(p *mining.Pattern) []bool {
		row := make([]bool, len(uniq))
		for i, q := range uniq {
			row[i] = sparql.Embeds(p.Graph, q)
		}
		return row
	}

	// Lines 3–6: one-edge pattern per frequent property in the hot graph.
	oneEdgeCodes := make(map[string]bool)
	var oneEdgeRows [][]bool
	for _, pred := range hsn.Predicates() {
		g := sparql.NewGraph()
		g.AddTriplePattern(sparql.Vertex{Var: "a"}, sparql.Edge{Pred: pred}, sparql.Vertex{Var: "b"})
		code := mining.CanonicalCode(g)
		p := &mining.Pattern{Graph: g, Code: code}
		row := contains(p)
		for i, ok := range row {
			if ok {
				p.Support += weights[i]
			}
		}
		sel.OneEdge = append(sel.OneEdge, p)
		oneEdgeRows = append(oneEdgeRows, row)
		oneEdgeCodes[code] = true
	}

	// Candidate multi-edge patterns.
	type cand struct {
		p    *mining.Pattern
		row  []bool
		size int
	}
	var cands []cand
	for _, p := range patterns {
		if p.Size() <= 1 || oneEdgeCodes[p.Code] {
			continue
		}
		cands = append(cands, cand{p: p, row: contains(p)})
	}

	// Each code's pattern is matched once, into an edge set, and sized by
	// the set's bit count: all of them in one batch, before the loop.
	var items []match.Item
	var codes []string
	queue := func(p *mining.Pattern) {
		if _, ok := sel.FragSize[p.Code]; !ok {
			sel.FragSize[p.Code] = 0
			items = append(items, match.Item{Q: p.Graph})
			codes = append(codes, p.Code)
		}
	}
	for _, p := range sel.OneEdge {
		queue(p)
	}
	for _, c := range cands {
		queue(c.p)
	}
	edges := make(map[string]*rdf.EdgeSet, len(codes))
	for i, es := range match.MatchedEdgesAll(items, hsn) {
		edges[codes[i]], sel.FragSize[codes[i]] = es, es.Len()
	}
	totalSize := 0
	for _, p := range sel.OneEdge {
		totalSize += sel.FragSize[p.Code]
	}
	for i := range cands {
		cands[i].size = sel.FragSize[cands[i].p.Code]
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].p.Code < cands[j].p.Code })

	// benefitWith computes Benefit(P' ∪ extra, Q) where best holds the
	// current per-query maximum |E(p)| over the chosen set.
	benefit := func(best []int) int {
		total := 0
		for i, b := range best {
			total += b * weights[i]
		}
		return total
	}
	baseBest := make([]int, len(uniq))
	for i, row := range oneEdgeRows {
		sz := sel.OneEdge[i].Size()
		for qi, ok := range row {
			if ok && sz > baseBest[qi] {
				baseBest[qi] = sz
			}
		}
	}
	applyCand := func(best []int, c cand) []int {
		out := append([]int(nil), best...)
		sz := c.p.Size()
		for qi, ok := range c.row {
			if ok && sz > out[qi] {
				out[qi] = sz
			}
		}
		return out
	}

	budget := sc - totalSize

	// Line 7: P1 = the single best-by-density pattern that fits.
	bestP1 := -1
	var bestP1Density float64
	for i, c := range cands {
		if c.size > budget || c.size == 0 {
			continue
		}
		b := benefit(applyCand(baseBest, c)) - benefit(baseBest)
		d := float64(b) / float64(c.size)
		if bestP1 == -1 || d > bestP1Density {
			bestP1, bestP1Density = i, d
		}
	}

	// Lines 8–14: greedy accumulation P2 by marginal benefit density.
	curBest := append([]int(nil), baseBest...)
	curBenefit := benefit(curBest)
	var p2 []int
	used := make([]bool, len(cands))
	sizeP2 := 0
	for {
		pick := -1
		var pickDensity float64
		var pickBest []int
		var pickBenefit int
		for i, c := range cands {
			if used[i] || c.size == 0 || sizeP2+c.size > budget {
				continue
			}
			nb := applyCand(curBest, c)
			gain := benefit(nb) - curBenefit
			if gain <= 0 {
				continue
			}
			d := float64(gain) / float64(c.size)
			if pick == -1 || d > pickDensity {
				pick, pickDensity, pickBest, pickBenefit = i, d, nb, benefit(nb)
			}
		}
		if pick == -1 {
			break
		}
		used[pick] = true
		p2 = append(p2, pick)
		sizeP2 += cands[pick].size
		curBest = pickBest
		curBenefit = pickBenefit
	}

	// Lines 15–17: choose the better of P' ∪ P1 and P' ∪ P2.
	benefitP1 := benefit(baseBest)
	if bestP1 >= 0 {
		benefitP1 = benefit(applyCand(baseBest, cands[bestP1]))
	}
	benefitP2 := curBenefit

	sel.Patterns = append(sel.Patterns, sel.OneEdge...)
	if benefitP1 >= benefitP2 {
		if bestP1 >= 0 {
			sel.Patterns = append(sel.Patterns, cands[bestP1].p)
			totalSize += cands[bestP1].size
		}
		sel.Benefit = benefitP1
	} else {
		for _, i := range p2 {
			sel.Patterns = append(sel.Patterns, cands[i].p)
		}
		totalSize += sizeP2
		sel.Benefit = benefitP2
	}
	sel.TotalSize = totalSize
	sel.edges = make(map[string]*rdf.EdgeSet, len(sel.Patterns))
	for _, p := range sel.Patterns {
		sel.edges[p.Code] = edges[p.Code]
	}
	return sel, nil
}
