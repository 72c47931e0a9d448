// Package exec is the distributed SPARQL engine of Section 7: it deploys
// a fragmentation + allocation onto a cluster (in-process sites, remote
// site processes, or a mix — the transports share one SiteEval surface),
// decomposes each incoming query (Algorithm 3), optimizes the join order
// (Algorithm 4), evaluates subqueries on the relevant sites in parallel,
// and joins the shipped bindings at the control site.
//
// Two steps between them keep rows off the network. Subqueries that share
// a variable and whose fragments all sit on one site — what affinity
// allocation (Definition 13, Algorithm 2) aims for — are merged into one,
// which that site answers with one match, so only their joined rows are
// shipped. And each subquery carries its kept vertices: those whose
// variables the query projects, orders by or joins on. A site's search
// stops at one witness for the other variables, which the control site's
// projection drops anyway, answers being sets.
package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"rdffrag/internal/allocation"
	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/dict"
	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/plan"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Engine executes SPARQL queries over a deployed fragmentation.
type Engine struct {
	Cluster *cluster.Cluster
	Dict    *dict.Dictionary
	Frag    *fragment.Fragmentation
	Alloc   *allocation.Allocation

	// BatchSize is the number of binding rows per streamed batch between
	// sites and the control-site join pipeline (default
	// cluster.DefaultBatchSize).
	BatchSize int

	// Remotes maps site IDs to remote evaluators (transport site
	// clients). Subqueries routed to a mapped site go over the network;
	// unmapped sites evaluate in-process over the cluster's channel
	// RPC. The engine is transport-agnostic: both satisfy
	// cluster.SiteEval.
	Remotes map[int]cluster.SiteEval

	// PartialResults selects the degradation mode when a site stays
	// unavailable after its client's retry budget and circuit breaker
	// have spoken (cluster.ErrSiteUnavailable): true skips the site and
	// flags the result partial (listing the unreachable sites in
	// QueryStats); false fails the query with the site's error.
	PartialResults bool

	dec *decompose.Decomposer
}

// evaluatorFor resolves the evaluator serving a site: its remote
// client when one is configured, the in-process cluster otherwise.
func (e *Engine) evaluatorFor(site int) cluster.SiteEval {
	if ev, ok := e.Remotes[site]; ok {
		return ev
	}
	return e.Cluster
}

// SiteMetrics reports the robustness counters of every remote site
// client that exposes them, ordered by site ID. In-process sites have
// no retry/breaker machinery and are absent.
func (e *Engine) SiteMetrics() []cluster.SiteMetrics {
	out := make([]cluster.SiteMetrics, 0, len(e.Remotes))
	for _, ev := range e.Remotes {
		if r, ok := ev.(cluster.SiteMetricsReporter); ok {
			out = append(out, r.SiteMetrics())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// QueryStats reports per-query execution metrics.
type QueryStats struct {
	Subqueries   int
	SitesTouched int
	// DecompositionCost is Algorithm 3's Π card estimate.
	DecompositionCost float64
	// PlanCost is Algorithm 4's estimated intermediate size total.
	PlanCost float64
	// IntermediateRows counts actual binding rows shipped to the control
	// site before joining.
	IntermediateRows int
	// Partial is true when PartialResults mode skipped unreachable
	// sites: the rows returned are correct but possibly incomplete.
	// UnreachableSites lists the skipped sites, ascending.
	Partial          bool
	UnreachableSites []int
}

// New wires an engine and deploys every fragment to its allocated site:
// the site records the graph storing it, which a hot fragment shares with
// the site's other hot fragments.
func New(c *cluster.Cluster, d *dict.Dictionary, fr *fragment.Fragmentation, alloc *allocation.Allocation, hc *fragment.HotCold) (*Engine, error) {
	e := &Engine{
		Cluster: c,
		Dict:    d,
		Frag:    fr,
		Alloc:   alloc,
		dec:     &decompose.Decomposer{Dict: d, HC: hc},
	}
	for _, f := range fr.All() {
		site, ok := alloc.SiteOf[f.ID]
		if !ok {
			return nil, fmt.Errorf("exec: fragment %d has no site", f.ID)
		}
		if err := c.Place(site, f.ID, f.Graph); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// SetNaiveDecomposition switches the engine to single-edge decompositions
// (the decomposition ablation); pass false to restore Algorithm 3.
func (e *Engine) SetNaiveDecomposition(naive bool) { e.dec.Naive = naive }

// Views exposes the cluster's view source: the serving layer publishes a
// new cut there after each update batch and pins one per query.
func (e *Engine) Views() *rdf.ViewSource { return e.Cluster.Views() }

// Prepared is one query's execution plan: the chosen decomposition
// (Algorithm 3) and join order (Algorithm 4), bound to the query's own
// constants and variable names. It may be executed any number of times,
// concurrently, for that query; what is shared between queries of one
// structure is the decompose.Shape it was bound from, not the Prepared.
type Prepared struct {
	Dcp  *decompose.Decomposition
	Plan *plan.Plan
	// View, when non-nil, is the pinned read view every site evaluation
	// of this execution reads from — the MVCC replacement for the old
	// per-query data lock. Prepare leaves it nil; the server stamps the
	// view acquired at admission.
	// A nil View makes each site evaluation fall back to a
	// per-graph-consistent snapshot of the current state (fine for
	// offline callers with no concurrent writer).
	View *rdf.ViewHandle
}

// Prepare decomposes and optimizes q without executing it. A query with a
// constant the dictionary lacks (see Graph.Resolved) has no match: its
// plan has no subqueries, so it touches no site and answers no rows. No
// later step may meet that constant, rdf.NoID, which the matcher would
// read as unbound and the wire cannot render.
func (e *Engine) Prepare(q *sparql.Graph) (*Prepared, error) {
	if !q.Resolved() {
		return &Prepared{Dcp: &decompose.Decomposition{}, Plan: &plan.Plan{}}, nil
	}
	s, err := e.Shape(q)
	if err != nil {
		return nil, err
	}
	return e.Bind(s, q)
}

// Shape computes the part of Prepare that depends on q's structure alone
// — the costly part, and the one worth caching: every query that differs
// from q only in constant values and variable names can be bound from
// the same Shape.
func (e *Engine) Shape(q *sparql.Graph) (*decompose.Shape, error) {
	return e.dec.Shape(q)
}

// Bind finishes Prepare for q, a query of s's structure: the cheapest
// decomposition under q's constants and the current statistics, with its
// co-located subqueries merged (colocate) and each subquery's kept
// vertices marked (markKept), and the join order over it. Both are
// computed here, once, so that executing the plan allocates nothing for
// them.
func (e *Engine) Bind(s *decompose.Shape, q *sparql.Graph) (*Prepared, error) {
	dcp, err := s.Bind(q)
	if err != nil {
		return nil, err
	}
	colocate(q, dcp)
	markKept(q, dcp)
	pl, err := plan.Optimize(dcp)
	if err != nil {
		return nil, err
	}
	return &Prepared{Dcp: dcp, Plan: pl}, nil
}

// colocate merges the hot pattern subqueries of dcp that share a variable
// and whose relevant fragments all sit on one site — transitively — into
// one subquery each: the query's edges they cover, reading the union of
// their fragments. That site then answers their join itself and ships
// only its rows; affinity allocation (Definition 13, Algorithm 2) is what
// puts such fragments together. The merge is exact: each part's matches
// lie in its relevant fragments, all stored in the site's graph, which
// holds nothing the deployment does not, so the merged pattern's matches
// there are the join of the parts'. A merged subquery is estimated at
// its smallest part's card. Cold and global subqueries, and parts that
// share no variable, are left as they are.
func colocate(q *sparql.Graph, dcp *decompose.Decomposition) {
	subs := dcp.Subqueries
	if len(subs) < 2 {
		return
	}
	root := make([]int, len(subs)) // root[i]: the lowest subquery merged with subquery i
	for i := range root {
		root[i] = i
	}
	merged := false
	for i, a := range subs {
		site := siteOf(a)
		for j := i + 1; j < len(subs); j++ {
			if b := subs[j]; site < 0 || siteOf(b) != site || root[i] == root[j] || !sharesVar(a.Graph, b.Graph) {
				continue
			}
			from, to := max(root[i], root[j]), min(root[i], root[j])
			for k := range root {
				if root[k] == from {
					root[k] = to
				}
			}
			merged = true
		}
	}
	if !merged {
		return
	}
	out := make([]*decompose.Subquery, 0, len(subs))
	for i, sq := range subs {
		if root[i] != i {
			continue // merged into a subquery before it
		}
		if !slices.Contains(root[i+1:], i) {
			out = append(out, sq)
			continue
		}
		m := &decompose.Subquery{Card: sq.Card}
		for k, part := range subs {
			if root[k] != i {
				continue
			}
			m.EdgeIdx = append(m.EdgeIdx, part.EdgeIdx...)
			for _, entry := range part.Relevant {
				if !slices.Contains(m.Relevant, entry) {
					m.Relevant = append(m.Relevant, entry)
				}
			}
			m.Card = min(m.Card, part.Card)
		}
		slices.Sort(m.EdgeIdx)
		m.Graph = q.EdgeSubgraph(m.EdgeIdx)
		out = append(out, m)
	}
	dcp.Subqueries = out
}

// siteOf returns the site holding every relevant fragment of a hot
// pattern subquery, or -1 if there is no one such site, or sq is cold or
// global.
func siteOf(sq *decompose.Subquery) int {
	if sq.Cold || sq.Global || len(sq.Relevant) == 0 {
		return -1
	}
	s := sq.Relevant[0].Site
	for _, entry := range sq.Relevant[1:] {
		if entry.Site != s {
			return -1
		}
	}
	return s
}

// sharesVar reports whether a and b have a vertex variable in common.
func sharesVar(a, b *sparql.Graph) bool {
	return slices.ContainsFunc(a.Verts, func(v sparql.Vertex) bool { return v.IsVar() && hasVertexVar(b, v.Var) })
}

// hasVertexVar reports whether a vertex of g is the variable name.
func hasVertexVar(g *sparql.Graph, name string) bool {
	return slices.ContainsFunc(g.Verts, func(v sparql.Vertex) bool { return v.Var == name })
}

// markKept sets the Keep of each subquery of dcp that has a variable
// vertex nothing else reads: the vertices the rest of q reads are those
// whose variables q projects or orders by, or another subquery binds
// too. Under SELECT * every vertex is read, and a subquery whose every
// variable vertex is read keeps a nil Keep: both are matched in full.
func markKept(q *sparql.Graph, dcp *decompose.Decomposition) {
	if len(q.Select) == 0 {
		return
	}
	read := func(i int, name string) bool {
		if slices.Contains(q.Select, name) || slices.ContainsFunc(q.OrderBy, func(k sparql.OrderKey) bool { return k.Var == name }) {
			return true
		}
		for j, other := range dcp.Subqueries {
			if j != i && (hasVertexVar(other.Graph, name) ||
				slices.ContainsFunc(other.Graph.Edges, func(e sparql.Edge) bool { return e.PredVar == name })) {
				return true
			}
		}
		return false
	}
	for i, sq := range dcp.Subqueries {
		verts := sq.Graph.Verts
		if !slices.ContainsFunc(verts, func(v sparql.Vertex) bool { return v.IsVar() && !read(i, v.Var) }) {
			continue
		}
		keep := make(match.VertexMask, (len(verts)+63)/64)
		for v, vert := range verts {
			if vert.IsVar() && read(i, vert.Var) {
				keep = keep.Add(v)
			}
		}
		sq.Keep = keep
	}
}

// Query evaluates q and returns the projected bindings.
func (e *Engine) Query(q *sparql.Graph) (*match.Bindings, *QueryStats, error) {
	prep, err := e.Prepare(q)
	if err != nil {
		return nil, nil, err
	}
	return e.QueryPrepared(context.Background(), q, prep)
}

// Explain reports how a query would execute without running it: the
// chosen decomposition (Algorithm 3), the join order (Algorithm 4), and
// the fragments/sites each subquery would touch. Subqueries Bind merged
// because their fragments share a site show as one step, which lists all
// their fragments; the decomposition cost is still that of the parts.
func (e *Engine) Explain(q *sparql.Graph) (*Explanation, error) {
	prep, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	dcp, pl := prep.Dcp, prep.Plan
	ex := &Explanation{
		DecompositionCost: dcp.Cost,
		PlanCost:          pl.Cost,
		JoinOrder:         pl.Order,
	}
	for _, sq := range dcp.Subqueries {
		step := ExplainStep{
			Text:          sq.Graph.StringWithDict(e.Frag.Hot.Dict),
			Kind:          "pattern",
			EstimatedCard: sq.Card,
		}
		switch {
		case sq.Cold:
			step.Kind = "cold"
			if e.Alloc.ColdSite >= 0 {
				step.Fragments = []FragmentRef{{ID: e.Frag.Cold.ID, Site: e.Alloc.ColdSite, Size: e.Frag.Cold.Size}}
			}
		case sq.Global:
			step.Kind = "global"
			for _, f := range e.Frag.All() {
				step.Fragments = append(step.Fragments, FragmentRef{ID: f.ID, Site: e.Alloc.SiteOf[f.ID], Size: f.Size})
			}
		default:
			for _, entry := range sq.Relevant {
				step.Fragments = append(step.Fragments, FragmentRef{ID: entry.Fragment.ID, Site: entry.Site, Size: entry.Size})
			}
		}
		ex.Subqueries = append(ex.Subqueries, step)
	}
	return ex, nil
}

// Explanation is a human-oriented description of how a query would run.
type Explanation struct {
	// Subqueries renders each subquery: its BGP text, classification and
	// the fragment/site pairs it would read.
	Subqueries []ExplainStep
	// JoinOrder lists subquery indices in execution order.
	JoinOrder []int
	// DecompositionCost and PlanCost are the optimizer estimates.
	DecompositionCost float64
	PlanCost          float64
}

// ExplainStep is one subquery of an explanation.
type ExplainStep struct {
	Text          string
	Kind          string // "pattern", "cold" or "global"
	EstimatedCard int
	Fragments     []FragmentRef
}

// FragmentRef names a fragment the step would read and its site; Size is
// the fragment's own size when it was built, not its site's graph's.
type FragmentRef struct {
	ID   int
	Site int
	Size int
}

// String renders the explanation as indented text.
func (ex *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decomposition cost %.0f, plan cost %.0f, join order %v\n",
		ex.DecompositionCost, ex.PlanCost, ex.JoinOrder)
	for i, st := range ex.Subqueries {
		fmt.Fprintf(&b, "  q%d [%s, card≈%d] %s\n", i, st.Kind, st.EstimatedCard, st.Text)
		for _, f := range st.Fragments {
			fmt.Fprintf(&b, "      fragment %d @ site %d (%d edges)\n", f.ID, f.Site, f.Size)
		}
	}
	return b.String()
}

// siteFrags is the fragments a subquery reads at one site.
type siteFrags struct {
	site  int
	frags []int
}

// routeSubquery lists the sites a subquery must read, ascending, each
// with the IDs of the fragments it reads there. An empty list means the
// subquery has no relevant fragments and yields no rows. Which fragments
// a pattern subquery's constants leave relevant was decided when it was
// bound; a subquery that skipped that step is refused, since routing it
// nowhere would pass for an empty answer.
func (e *Engine) routeSubquery(sq *decompose.Subquery) ([]siteFrags, error) {
	var route []siteFrags
	add := func(site, frag int) {
		i := slices.IndexFunc(route, func(r siteFrags) bool { return r.site == site })
		if i < 0 {
			i, route = len(route), append(route, siteFrags{site: site})
		}
		route[i].frags = append(route[i].frags, frag)
	}
	switch {
	case sq.Cold:
		if e.Frag.Cold != nil && e.Alloc.ColdSite >= 0 {
			add(e.Alloc.ColdSite, e.Frag.Cold.ID)
		}
	case sq.Global:
		for _, f := range e.Frag.All() {
			add(e.Alloc.SiteOf[f.ID], f.ID)
		}
	default:
		if sq.Relevant == nil {
			return nil, fmt.Errorf("exec: pattern subquery %s carries no relevant fragments: it was not bound by decompose", sq.Graph)
		}
		for _, entry := range sq.Relevant {
			if entry.Site < 0 {
				return nil, fmt.Errorf("exec: fragment %d unallocated", entry.Fragment.ID)
			}
			add(entry.Site, entry.Fragment.ID)
		}
	}
	slices.SortFunc(route, func(a, b siteFrags) int { return a.site - b.site })
	return route, nil
}
