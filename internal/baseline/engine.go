package baseline

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/exec"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/plan"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Engine executes queries over a baseline placement. Unlike the paper's
// VF/HF engine it cannot prune sites: every subquery is broadcast to all
// of them (SHAPE and WARP both hash/partition data so any site may hold
// matches), then results are unioned and joined at the control site.
type Engine struct {
	Cluster   *cluster.Cluster
	Placement *Placement
	// Patterns drive WARP's pattern-first decomposition; empty for SHAPE.
	Patterns []*mining.Pattern

	predCount map[rdf.ID]int
	triples   int
}

// NewEngine deploys a placement to the cluster, one fragment per site
// (fragment ID = site ID).
func NewEngine(c *cluster.Cluster, p *Placement, patterns []*mining.Pattern, original *rdf.Graph) (*Engine, error) {
	if len(p.SiteGraphs) != len(c.Sites) {
		return nil, fmt.Errorf("baseline: placement has %d sites, cluster %d", len(p.SiteGraphs), len(c.Sites))
	}
	for i, g := range p.SiteGraphs {
		if err := c.Place(i, i, g); err != nil {
			return nil, err
		}
	}
	e := &Engine{Cluster: c, Placement: p, Patterns: patterns, predCount: make(map[rdf.ID]int)}
	osn := original.Snapshot()
	for _, pr := range osn.Predicates() {
		e.predCount[pr] = osn.PredicateCount(pr)
	}
	osn.Close()
	e.triples = original.NumTriples()
	return e, nil
}

// Query decomposes, broadcasts, unions and joins.
func (e *Engine) Query(q *sparql.Graph) (*match.Bindings, *exec.QueryStats, error) {
	subs := e.decompose(q)
	stats := &exec.QueryStats{Subqueries: len(subs), SitesTouched: len(e.Cluster.Sites)}

	results := make([]*match.Bindings, len(subs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, sq := range subs {
		wg.Add(1)
		go func(i int, sq *decompose.Subquery) {
			defer wg.Done()
			parts := make([]*match.Bindings, len(e.Cluster.Sites))
			var iwg sync.WaitGroup
			for s := range e.Cluster.Sites {
				iwg.Add(1)
				go func(s int) {
					defer iwg.Done()
					b, err := e.Cluster.Eval(context.Background(), cluster.EvalRequest{SiteID: s, FragIDs: []int{s}, Query: sq.Graph})
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					parts[s] = b
					mu.Unlock()
				}(s)
			}
			iwg.Wait()
			mu.Lock()
			results[i] = cluster.Union(parts...)
			mu.Unlock()
		}(i, sq)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}

	dcp := &decompose.Decomposition{Subqueries: subs}
	pl, err := plan.Optimize(dcp)
	if err != nil {
		return nil, nil, err
	}
	joined := results[pl.Order[0]]
	for _, idx := range pl.Order[1:] {
		joined = cluster.HashJoin(joined, results[idx])
	}
	if len(q.Select) > 0 {
		joined = cluster.Project(joined, q.Select)
	} else {
		joined.Dedup()
	}
	return joined, stats, nil
}

// decompose builds the baseline's subqueries. WARP first greedily covers
// the query with its replicated patterns (largest first); the remainder —
// and everything, for SHAPE — is grouped into subject-rooted stars, which
// both placements answer locally per site.
func (e *Engine) decompose(q *sparql.Graph) []*decompose.Subquery {
	covered := make([]bool, len(q.Edges))
	var subs []*decompose.Subquery

	if len(e.Patterns) > 0 {
		pats := append([]*mining.Pattern(nil), e.Patterns...)
		sort.Slice(pats, func(i, j int) bool { return pats[i].Size() > pats[j].Size() })
		for _, pat := range pats {
			if pat.Size() <= 1 {
				continue
			}
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
					Card:        e.estimate(sub),
				})
			}
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
			Card:    e.estimate(sub),
		})
	}
	return subs
}

// estimate is a coarse cardinality estimate: the minimum predicate count
// over the subquery's edges, halved per constant vertex.
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
