package baseline

import (
	"context"
	"fmt"
	"sort"

	"rdffrag/internal/allocation"
	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/exec"
	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/plan"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Engine answers queries over a baseline placement with the paper's own
// engine (internal/exec): the placement is deployed as one fragment per
// site, and the baseline decides only the decomposition. It cannot prune
// sites: SHAPE and WARP both hash/partition data so any site may hold
// matches, so every subquery is global and evaluated at all of them.
type Engine struct {
	engine *exec.Engine
	// patterns drive WARP's pattern-first decomposition: its multi-edge
	// patterns, largest first; empty for SHAPE.
	patterns  []*mining.Pattern
	predCount map[rdf.ID]int
	triples   int
}

// NewEngine deploys a placement to the cluster: fragment i is site i's
// graph, allocated to site i, and no graph is cold.
func NewEngine(c *cluster.Cluster, p *Placement, patterns []*mining.Pattern, original *rdf.Graph) (*Engine, error) {
	if len(p.SiteGraphs) != len(c.Sites) {
		return nil, fmt.Errorf("baseline: placement has %d sites, cluster %d", len(p.SiteGraphs), len(c.Sites))
	}
	fr := &fragment.Fragmentation{Hot: original}
	alloc := &allocation.Allocation{SiteOf: make(map[int]int, len(p.SiteGraphs)), ColdSite: -1}
	for i, g := range p.SiteGraphs {
		fr.Fragments = append(fr.Fragments, &fragment.Fragment{ID: i, Size: g.NumTriples(), Graph: g})
		alloc.SiteOf[i] = i
	}
	eng, err := exec.New(c, nil, fr, alloc, nil)
	if err != nil {
		return nil, err
	}
	var pats []*mining.Pattern
	for _, pat := range patterns {
		if pat.Size() > 1 { // a 1-edge pattern covers nothing a star does not
			pats = append(pats, pat)
		}
	}
	sort.Slice(pats, func(i, j int) bool { return pats[i].Size() > pats[j].Size() })
	e := &Engine{engine: eng, patterns: pats, predCount: make(map[rdf.ID]int)}
	osn := original.Snapshot()
	for _, pr := range osn.Predicates() {
		e.predCount[pr] = osn.PredicateCount(pr)
	}
	osn.Close()
	e.triples = original.NumTriples()
	return e, nil
}

// Query decomposes q, orders the joins (Algorithm 4) and runs the plan
// through the engine, which evaluates every subquery at every site.
func (e *Engine) Query(q *sparql.Graph) (*match.Bindings, *exec.QueryStats, error) {
	dcp := &decompose.Decomposition{Subqueries: e.decompose(q)}
	pl, err := plan.Optimize(dcp)
	if err != nil {
		return nil, nil, err
	}
	return e.engine.QueryPrepared(context.Background(), q, &exec.Prepared{Dcp: dcp, Plan: pl})
}

// decompose builds the baseline's subqueries, each global. WARP first
// greedily covers the query with its replicated patterns (largest first);
// the remainder — and everything, for SHAPE — is grouped into
// subject-rooted stars, which both placements answer locally per site.
func (e *Engine) decompose(q *sparql.Graph) []*decompose.Subquery {
	covered := make([]bool, len(q.Edges))
	var subs []*decompose.Subquery

	for _, pat := range e.patterns {
		for _, es := range sparql.CoveredEdgeSets(pat.Graph, q) {
			free := true
			for _, ei := range es {
				if covered[ei] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			for _, ei := range es {
				covered[ei] = true
			}
			sub := q.EdgeSubgraph(es)
			subs = append(subs, &decompose.Subquery{
				Graph:       sub,
				EdgeIdx:     append([]int(nil), es...),
				PatternCode: pat.Code,
				Global:      true,
				Card:        e.estimate(sub),
			})
		}
	}

	// Remaining edges: subject-rooted stars.
	byRoot := make(map[int][]int)
	var roots []int
	for ei, edge := range q.Edges {
		if covered[ei] {
			continue
		}
		if _, ok := byRoot[edge.From]; !ok {
			roots = append(roots, edge.From)
		}
		byRoot[edge.From] = append(byRoot[edge.From], ei)
	}
	sort.Ints(roots)
	for _, r := range roots {
		es := byRoot[r]
		sub := q.EdgeSubgraph(es)
		subs = append(subs, &decompose.Subquery{
			Graph:   sub,
			EdgeIdx: append([]int(nil), es...),
			Global:  true,
			Card:    e.estimate(sub),
		})
	}
	return subs
}

// estimate is a coarse cardinality estimate: the minimum predicate count
// over the subquery's edges, divided by 10 per constant vertex.
func (e *Engine) estimate(sub *sparql.Graph) int {
	est := -1
	for _, edge := range sub.Edges {
		c := e.triples
		if !edge.IsPredVar() {
			c = e.predCount[edge.Pred]
		}
		if est == -1 || c < est {
			est = c
		}
	}
	for _, v := range sub.Verts {
		if !v.IsVar() {
			est /= 10
		}
	}
	if est < 1 {
		est = 1
	}
	return est
}
