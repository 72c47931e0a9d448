package mining

import (
	"maps"
	"slices"
	"sort"

	"rdffrag/internal/sparql"
)

// Pattern is a frequent access pattern (Section 4): a normalized query
// subgraph together with its access frequency acc(p) over the workload.
type Pattern struct {
	Graph   *sparql.Graph
	Code    string // canonical code, the dictionary key
	Support int    // acc(p): number of workload queries containing the pattern
}

// Size returns |E(p)|.
func (p *Pattern) Size() int { return p.Graph.NumEdges() }

// Miner mines frequent access patterns from a SPARQL query workload.
type Miner struct {
	// MinSup is the absolute support threshold minSup (Definition 7); a
	// pattern is frequent if at least MinSup queries contain it.
	MinSup int
	// MaxEdges caps pattern growth; 0 defaults to 10, matching the
	// paper's observation that real query graphs have ≤ 10 edges.
	MaxEdges int
}

// uniqueQuery is a distinct normalized query graph and how many workload
// queries normalize to it.
type uniqueQuery struct {
	g      *sparql.Graph
	weight int
}

// Normalize groups workload queries by the canonical code of their
// generalized graphs, returning distinct graphs with multiplicities.
// Disconnected queries contribute each connected component separately
// (the paper assumes connected Q; components are considered separately).
func Normalize(workload []*sparql.Graph) ([]*sparql.Graph, []int) {
	byCode := make(map[string]*uniqueQuery)
	var order []string
	for _, q := range workload {
		gen := q.Generalize()
		comps := gen.ConnectedComponents()
		var graphs []*sparql.Graph
		if len(comps) <= 1 {
			graphs = []*sparql.Graph{gen}
		} else {
			for _, edges := range comps {
				graphs = append(graphs, gen.EdgeSubgraph(edges))
			}
		}
		for _, g := range graphs {
			code := CanonicalCode(g)
			if u, ok := byCode[code]; ok {
				u.weight++
				continue
			}
			byCode[code] = &uniqueQuery{g: g, weight: 1}
			order = append(order, code)
		}
	}
	gs := make([]*sparql.Graph, len(order))
	ws := make([]int, len(order))
	for i, code := range order {
		gs[i] = byCode[code].g
		ws[i] = byCode[code].weight
	}
	return gs, ws
}

// Mine normalizes the workload and mines all frequent access patterns with
// acc(p) >= MinSup, using pattern growth with canonical-code deduplication.
// Patterns are returned sorted by decreasing support, then decreasing size.
func (m *Miner) Mine(workload []*sparql.Graph) []*Pattern {
	maxEdges := m.MaxEdges
	if maxEdges <= 0 {
		maxEdges = 10
	}
	minSup := m.MinSup
	if minSup < 1 {
		minSup = 1
	}
	graphs, weights := Normalize(workload)
	uniq := make([]*uniqueQuery, len(graphs))
	for i := range graphs {
		uniq[i] = &uniqueQuery{g: graphs[i], weight: weights[i]}
	}

	seen := make(map[string]*Pattern)

	// Level 1: single-edge patterns present in the workload.
	level1 := make(map[string]*sparql.Graph)
	for _, u := range uniq {
		for i := range u.g.Edges {
			sub := u.g.EdgeSubgraph([]int{i})
			code := CanonicalCode(sub)
			if _, ok := level1[code]; !ok {
				level1[code] = sub
			}
		}
	}
	// keepFrequent turns one level's candidates into the next frontier, in
	// code order: the frontier's order decides which of a code's isomorphic
	// candidate graphs the next level meets first and keeps, and with it
	// the vertex numbering that minterm constraints are written in — which
	// every process mining the same workload must agree on.
	keepFrequent := func(level map[string]*sparql.Graph) []*Pattern {
		var next []*Pattern
		for _, code := range slices.Sorted(maps.Keys(level)) {
			if sup := support(level[code], uniq); sup >= minSup {
				p := &Pattern{Graph: level[code], Code: code, Support: sup}
				seen[code] = p
				next = append(next, p)
			}
		}
		return next
	}
	frontier := keepFrequent(level1)

	// Pattern growth: extend each frequent pattern by one adjacent query
	// edge wherever it embeds, dedupe via canonical codes, keep frequent.
	for size := 1; size < maxEdges && len(frontier) > 0; size++ {
		candidates := make(map[string]*sparql.Graph)
		for _, p := range frontier {
			for _, u := range uniq {
				for _, emb := range sparql.FindEmbeddings(p.Graph, u.g, 0) {
					usedEdges := make(map[int]bool, len(emb.EdgeMap))
					for _, ei := range emb.EdgeMap {
						usedEdges[ei] = true
					}
					coveredVerts := make(map[int]bool, len(emb.VertexMap))
					for _, qv := range emb.VertexMap {
						coveredVerts[qv] = true
					}
					for ei, e := range u.g.Edges {
						if usedEdges[ei] {
							continue
						}
						if !coveredVerts[e.From] && !coveredVerts[e.To] {
							continue // extension must stay connected
						}
						edges := append(append([]int(nil), emb.EdgeMap...), ei)
						cand := u.g.EdgeSubgraph(edges)
						code := CanonicalCode(cand)
						if _, ok := seen[code]; ok {
							continue
						}
						if _, ok := candidates[code]; !ok {
							candidates[code] = cand
						}
					}
				}
			}
		}
		frontier = keepFrequent(candidates)
	}

	out := make([]*Pattern, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].Size() != out[j].Size() {
			return out[i].Size() > out[j].Size()
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// support computes acc(p) over the grouped workload.
func support(p *sparql.Graph, uniq []*uniqueQuery) int {
	total := 0
	for _, u := range uniq {
		if len(p.Edges) > len(u.g.Edges) {
			continue
		}
		if sparql.Embeds(p, u.g) {
			total += u.weight
		}
	}
	return total
}

// Coverage returns the fraction of workload queries that contain at least
// one of the given patterns (the "workload hitting ratio" of Figure 8(b)).
func Coverage(patterns []*Pattern, workload []*sparql.Graph) float64 {
	if len(workload) == 0 {
		return 0
	}
	hit := 0
	for _, q := range workload {
		gen := q.Generalize()
		for _, p := range patterns {
			if sparql.Embeds(p.Graph, gen) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(workload))
}
