// Package baseline re-implements the two distributed RDF fragmentation
// strategies the paper compares against (Section 8.1):
//
//   - SHAPE [14]: semantic hash partitioning with subject-object-based
//     triple groups — every vertex's incident triples are stored at the
//     site its ID hashes to, so star queries run locally but every query
//     consults every site.
//   - WARP [8]: a METIS partition of the RDF graph (our internal/partition
//     stands in for METIS) extended by replicating the matches of workload
//     access patterns so pattern-shaped queries avoid cross-fragment joins.
//
// Both baselines always involve all sites in query processing, which is
// what separates them from the paper's VF/HF strategies in the
// throughput/latency experiments.
package baseline

import (
	"hash/fnv"

	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/partition"
	"rdffrag/internal/rdf"
)

// Strategy names a baseline.
type Strategy string

const (
	// SHAPE is semantic hash partitioning with subject-object triple groups.
	SHAPE Strategy = "SHAPE"
	// WARP is min-cut partitioning plus workload pattern replication.
	WARP Strategy = "WARP"
)

// Placement is the per-site fragment assignment a baseline produces.
type Placement struct {
	Strategy Strategy
	// SiteGraphs[i] holds the triples stored at site i.
	SiteGraphs []*rdf.Graph
}

// Redundancy is the ratio of stored edges to original edges (Table 1).
func (p *Placement) Redundancy(original *rdf.Graph) float64 {
	total := 0
	for _, g := range p.SiteGraphs {
		total += g.NumTriples()
	}
	if original.NumTriples() == 0 {
		return 0
	}
	return float64(total) / float64(original.NumTriples())
}

// BuildSHAPE hashes every vertex to a site and stores its subject-object
// triple group there: all triples where the vertex is subject or object.
// Each triple lands on up to two sites (its subject's and its object's).
func BuildSHAPE(g *rdf.Graph, m int) *Placement {
	if m < 1 {
		m = 1
	}
	sites := make([][]rdf.Triple, m)
	site := func(v rdf.ID) int {
		h := fnv.New32a()
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
		return int(h.Sum32() % uint32(m))
	}
	for _, t := range g.Triples() {
		sites[site(t.S)] = append(sites[site(t.S)], t)
		sites[site(t.O)] = append(sites[site(t.O)], t)
	}
	return newPlacement(SHAPE, g.Dict, sites)
}

// newPlacement builds each site's graph from the triples assigned to it;
// a triple assigned to a site more than once counts once.
func newPlacement(strategy Strategy, d *rdf.Dict, sites [][]rdf.Triple) *Placement {
	p := &Placement{Strategy: strategy, SiteGraphs: make([]*rdf.Graph, len(sites))}
	for i, ts := range sites {
		p.SiteGraphs[i] = rdf.NewFrozen(d, ts)
	}
	return p
}

// BuildWARP partitions the RDF graph's vertices with the multilevel
// partitioner, assigns each triple to its subject's part, then replicates
// every match of each workload pattern into the part of the match's first
// bound vertex so pattern queries are answered without cross-site joins.
func BuildWARP(g *rdf.Graph, patterns []*mining.Pattern, m int) *Placement {
	if m < 1 {
		m = 1
	}
	g.Freeze() // pattern replication matches every pattern against g
	gsn := g.Snapshot()
	defer gsn.Close()
	sites := make([][]rdf.Triple, m)

	// Compact vertex numbering for the partitioner.
	verts := gsn.Vertices()
	idx := make(map[rdf.ID]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	pg := partition.NewGraph(len(verts))
	for _, t := range g.Triples() {
		pg.AddEdge(idx[t.S], idx[t.O], 1)
	}
	part := pg.Partition(m, partition.Options{Seed: 1})

	partOf := func(v rdf.ID) int { return part[idx[v]] }

	// Base assignment: triple to its subject's part.
	for _, t := range g.Triples() {
		sites[partOf(t.S)] = append(sites[partOf(t.S)], t)
	}

	// Pattern replication: each match fully resident at one site.
	for _, pat := range patterns {
		match.ForEach(pat.Graph, gsn, match.Options{}, func(mt *match.Match) bool {
			home := partOf(mt.Vertex[0])
			sites[home] = append(sites[home], mt.Triples...)
			return true
		})
	}
	return newPlacement(WARP, g.Dict, sites)
}
