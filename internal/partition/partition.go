// Package partition is a self-contained substitute for METIS [12], used by
// the WARP baseline: a multilevel graph partitioner with heavy-edge
// matching coarsening, greedy region-growing initial partitioning and
// boundary Kernighan–Lin/Fiduccia–Mattheyses refinement. It minimizes edge
// cut under a vertex-weight balance constraint — the same objective family
// as METIS, which is all the baseline comparison needs (see DESIGN.md §3).
package partition

import (
	"sort"
)

// Graph is an undirected weighted graph in adjacency form. Parallel edges
// should be pre-merged into weights.
type Graph struct {
	// Adj[v] lists the neighbors of v.
	Adj [][]Neighbor
	// VWeight[v] is the vertex weight (1 for plain vertices; coarsened
	// vertices accumulate weight).
	VWeight []int
}

// Neighbor is one incident edge.
type Neighbor struct {
	V int // the other endpoint
	W int // edge weight
}

// NewGraph allocates an empty graph with n vertices of unit weight.
func NewGraph(n int) *Graph {
	g := &Graph{Adj: make([][]Neighbor, n), VWeight: make([]int, n)}
	for i := range g.VWeight {
		g.VWeight[i] = 1
	}
	return g
}

// AddEdge inserts an undirected edge, merging weight into an existing
// edge if present.
func (g *Graph) AddEdge(u, v, w int) {
	if u == v {
		return
	}
	g.addHalf(u, v, w)
	g.addHalf(v, u, w)
}

func (g *Graph) addHalf(u, v, w int) {
	for i := range g.Adj[u] {
		if g.Adj[u][i].V == v {
			g.Adj[u][i].W += w
			return
		}
	}
	g.Adj[u] = append(g.Adj[u], Neighbor{V: v, W: w})
}

// totalVWeight sums vertex weights.
func (g *Graph) totalVWeight() int {
	t := 0
	for _, w := range g.VWeight {
		t += w
	}
	return t
}

// Options tunes Partition.
type Options struct {
	// Imbalance is the allowed part weight slack, e.g. 0.05 lets a part
	// grow 5% beyond the average. 0 means 0.1.
	Imbalance float64
	// CoarsenTo stops coarsening when the graph is this small. 0 means
	// max(64, 8·k).
	CoarsenTo int
	// RefinePasses caps KL/FM sweeps per level. 0 means 4.
	RefinePasses int
	// Seed drives the deterministic pseudo-random vertex visit order.
	Seed uint64
}

// Partition splits the graph into k parts, returning part[v] ∈ [0,k).
func (g *Graph) Partition(k int, opts Options) []int {
	n := len(g.Adj)
	if k < 1 {
		k = 1
	}
	part := make([]int, n)
	if k == 1 || n == 0 {
		return part
	}
	if opts.Imbalance == 0 {
		opts.Imbalance = 0.1
	}
	if opts.CoarsenTo == 0 {
		opts.CoarsenTo = 8 * k
		if opts.CoarsenTo < 64 {
			opts.CoarsenTo = 64
		}
	}
	if opts.RefinePasses == 0 {
		opts.RefinePasses = 4
	}

	// Multilevel descent.
	levels := []*level{{g: g}}
	cur := g
	for len(cur.Adj) > opts.CoarsenTo {
		nxt, mapping := coarsen(cur, opts.Seed+uint64(len(levels)))
		if len(nxt.Adj) >= len(cur.Adj) {
			break // no further reduction possible
		}
		levels[len(levels)-1].mapping = mapping
		levels = append(levels, &level{g: nxt})
		cur = nxt
	}

	// Initial partition on the coarsest graph.
	coarse := levels[len(levels)-1].g
	cpart := initialPartition(coarse, k, opts)
	refine(coarse, cpart, k, opts)

	// Project back up, refining at each level.
	for li := len(levels) - 2; li >= 0; li-- {
		lvl := levels[li]
		fine := lvl.g
		fpart := make([]int, len(fine.Adj))
		for v := range fpart {
			fpart[v] = cpart[lvl.mapping[v]]
		}
		refine(fine, fpart, k, opts)
		cpart = fpart
	}
	copy(part, cpart)
	return part
}

type level struct {
	g       *Graph
	mapping []int // fine vertex -> coarse vertex (set on all but coarsest)
}

// coarsen contracts a heavy-edge matching.
func coarsen(g *Graph, seed uint64) (*Graph, []int) {
	n := len(g.Adj)
	matchOf := make([]int, n)
	for i := range matchOf {
		matchOf[i] = -1
	}
	order := permute(n, seed)
	for _, v := range order {
		if matchOf[v] != -1 {
			continue
		}
		best, bestW := -1, -1
		for _, nb := range g.Adj[v] {
			if matchOf[nb.V] == -1 && nb.V != v && nb.W > bestW {
				best, bestW = nb.V, nb.W
			}
		}
		if best == -1 {
			matchOf[v] = v // unmatched: survives alone
		} else {
			matchOf[v] = best
			matchOf[best] = v
		}
	}
	// Assign coarse IDs.
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = -1
	}
	next := 0
	for v := 0; v < n; v++ {
		if mapping[v] != -1 {
			continue
		}
		mapping[v] = next
		if m := matchOf[v]; m != v && m != -1 {
			mapping[m] = next
		}
		next++
	}
	cg := &Graph{Adj: make([][]Neighbor, next), VWeight: make([]int, next)}
	for v := 0; v < n; v++ {
		cg.VWeight[mapping[v]] += g.VWeight[v]
	}
	for v := 0; v < n; v++ {
		cv := mapping[v]
		for _, nb := range g.Adj[v] {
			cu := mapping[nb.V]
			if cu != cv && v < nb.V { // each undirected edge contracted once
				cg.AddEdge(cv, cu, nb.W)
			}
		}
	}
	return cg, mapping
}

// initialPartition grows k regions greedily from spread-out seeds,
// balancing vertex weight.
func initialPartition(g *Graph, k int, opts Options) []int {
	n := len(g.Adj)
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	target := (g.totalVWeight() + k - 1) / k
	order := permute(n, opts.Seed+12345)

	// Seeds: pick k vertices far apart by simply striding the permutation.
	weights := make([]int, k)
	var frontiers [][]int
	for p := 0; p < k; p++ {
		seedV := order[(p*n)/k]
		if part[seedV] != -1 { // already taken; find any free vertex
			for _, v := range order {
				if part[v] == -1 {
					seedV = v
					break
				}
			}
		}
		part[seedV] = p
		weights[p] += g.VWeight[seedV]
		frontiers = append(frontiers, []int{seedV})
	}
	// BFS region growing, always expanding the lightest part.
	for {
		p := -1
		for i := 0; i < k; i++ {
			if len(frontiers[i]) > 0 && (p == -1 || weights[i] < weights[p]) {
				p = i
			}
		}
		if p == -1 {
			break
		}
		var next []int
		grew := false
		for _, v := range frontiers[p] {
			for _, nb := range g.Adj[v] {
				if part[nb.V] == -1 && weights[p] < target+target/4 {
					part[nb.V] = p
					weights[p] += g.VWeight[nb.V]
					next = append(next, nb.V)
					grew = true
				}
			}
		}
		frontiers[p] = next
		if !grew && len(next) == 0 {
			frontiers[p] = nil
		}
	}
	// Unreached vertices (disconnected): assign to the lightest part.
	for _, v := range order {
		if part[v] == -1 {
			p := 0
			for i := 1; i < k; i++ {
				if weights[i] < weights[p] {
					p = i
				}
			}
			part[v] = p
			weights[p] += g.VWeight[v]
		}
	}
	return part
}

// refine runs boundary FM passes: move vertices to the neighboring part
// with the largest cut gain while keeping balance.
func refine(g *Graph, part []int, k int, opts Options) {
	n := len(g.Adj)
	weights := make([]int, k)
	for v := 0; v < n; v++ {
		weights[part[v]] += g.VWeight[v]
	}
	maxW := int(float64(g.totalVWeight()) / float64(k) * (1 + opts.Imbalance))
	if maxW < 1 {
		maxW = 1
	}
	order := permute(n, opts.Seed+999)
	for pass := 0; pass < opts.RefinePasses; pass++ {
		moved := 0
		for _, v := range order {
			home := part[v]
			// Gain per candidate part.
			gain := map[int]int{}
			internal := 0
			for _, nb := range g.Adj[v] {
				if part[nb.V] == home {
					internal += nb.W
				} else {
					gain[part[nb.V]] += nb.W
				}
			}
			bestP, bestGain := -1, 0
			// Deterministic candidate order.
			cands := make([]int, 0, len(gain))
			for p := range gain {
				cands = append(cands, p)
			}
			sort.Ints(cands)
			for _, p := range cands {
				gn := gain[p] - internal
				if gn > bestGain && weights[p]+g.VWeight[v] <= maxW {
					bestP, bestGain = p, gn
				}
			}
			if bestP >= 0 {
				weights[home] -= g.VWeight[v]
				weights[bestP] += g.VWeight[v]
				part[v] = bestP
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// permute returns a deterministic pseudo-random permutation of [0,n)
// using an xorshift generator (no math/rand to keep runs reproducible
// across Go versions).
func permute(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := seed | 1
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
