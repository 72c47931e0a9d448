package rdffrag

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"rdffrag/internal/allocation"
	"rdffrag/internal/cluster"
	"rdffrag/internal/dict"
	"rdffrag/internal/exec"
	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Deployment is a fragmented, allocated, query-ready store. Its data is
// the hot/cold split — every triple is in the hot graph or the cold one,
// which is also the cold fragment — and one graph per site, the union of
// the hot fragments allocated there.
type Deployment struct {
	db  *DB // emptied by Deploy; its graph's Dict is the deployment's
	cfg Config
	// mined holds the mining fields of Stats — MinedPatterns,
	// SelectedPatterns, WorkloadCoverage — counted once by DeployParsed;
	// zero for a deployment LoadDeployment restored.
	mined   DeployStats
	hc      *fragment.HotCold
	frag    *fragment.Fragmentation
	alloc   *allocation.Allocation
	dict    *dict.Dictionary
	cluster *cluster.Cluster
	engine  *exec.Engine
	// walSeq is the write-ahead-log sequence stamp the deployment was
	// loaded at (0 for freshly built deployments); Durable.Recover
	// replays WAL records past it.
	walSeq uint64
	// expiry is the TTL schedule: the deadline of every triple the latest
	// insert of which carried one. Only applyBatch changes it, under the
	// writer lock; checkpoints carry it.
	expiry map[rdf.Triple]time.Time
}

// Result is a query answer: the engine's table, which the encoders read.
type Result struct {
	Vars []string
	// Rows is the answer decoded, one N-Triples term per cell ("" unbound).
	// Deployment.Query/QueryParsed and Server.Query/QueryParsed fill it;
	// /query does not, and the encoders never read it. It is a field, not
	// an accessor, only because benchmark/layers reads len(res.Rows); it
	// becomes one when ROADMAP item 5 retires that replay.
	Rows [][]string
	// Stats carries execution metrics for the answered query.
	Stats QueryStats

	ids   []rdf.ID        // row-major, len(Vars) to a row; rdf.NoID is unbound
	n     int             // rows: a zero-variable answer has rows and no IDs
	text  []string        // Dict.Rendered(): the renderings the IDs index
	table *match.Bindings // what ids lies in; /query releases it once written
}

// QueryStats summarizes one query's distributed execution.
type QueryStats = exec.QueryStats

// Query parses, decomposes, optimizes and executes a SPARQL query, adding
// no term to the dictionary: a constant it lacks answers no rows.
func (dep *Deployment) Query(query string) (*Result, error) {
	q, err := sparql.NewLookupParser(dep.db.graph.Dict).Parse(query)
	if err != nil {
		return nil, err
	}
	return dep.QueryParsed(q)
}

// QueryParsed executes an already-parsed query graph.
func (dep *Deployment) QueryParsed(q *sparql.Graph) (*Result, error) {
	b, stats, err := dep.engine.Query(q)
	if err != nil {
		return nil, err
	}
	return decoded(dep.newResult(q, b, stats), nil)
}

// newResult makes the engine's table, uncopied (the Result owns b.Rows),
// the answer beside the renderings it indexes, fetched under one read
// lock. ORDER BY sorts the rows stably in place in SPARQL 1.1 §15.1 order
// — unbound, blank nodes, IRIs, literals, each kind by rendering, DESC
// reversing both — and LIMIT then cuts the table.
func (dep *Deployment) newResult(q *sparql.Graph, b *match.Bindings, stats *exec.QueryStats) *Result {
	res := &Result{
		Vars:  b.Vars,
		Stats: *stats,
		ids:   b.Rows,
		n:     b.Len(),
		text:  dep.db.graph.Dict.Rendered(),
		table: b,
	}
	if len(q.OrderBy) > 0 {
		b.SortStable(func(i, j int) bool {
			for _, k := range q.OrderBy {
				if c := slices.Index(res.Vars, k.Var); c >= 0 {
					x, y := res.cell(i, c), res.cell(j, c)
					if d := cmp.Or(cmp.Compare(termRank(x), termRank(y)), strings.Compare(x, y)); d != 0 {
						return (d < 0) != k.Desc
					}
				}
			}
			return false
		})
		if q.Limit > 0 && res.n > q.Limit {
			res.n, res.ids = q.Limit, res.ids[:q.Limit*len(res.Vars)]
		}
	}
	return res
}

// termRank orders a rendering's kind, told by its first byte: unbound
// (""), blank node (_:), IRI (<), literal (anything else).
func termRank(s string) int {
	if s == "" {
		return 0
	}
	return 2 - strings.IndexByte("<_", s[0])
}

// decoded fills a successful answer's Rows: the embedded entry points' end.
func decoded(res *Result, err error) (*Result, error) {
	if err == nil {
		res.decodeRows()
	}
	return res, err
}

// decodeRows fills Rows with one cell array and one header array.
func (r *Result) decodeRows() {
	w, flat := len(r.Vars), make([]string, len(r.ids))
	r.Rows = make([][]string, r.n)
	for i := range r.Rows {
		r.Rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
		for c := range w {
			r.Rows[i][c] = r.cell(i, c)
		}
	}
}

// DeployStats summarizes the offline pipeline's outcome.
type DeployStats struct {
	Strategy         Strategy
	Sites            int
	Triples          int
	HotTriples       int
	ColdTriples      int
	MinedPatterns    int
	SelectedPatterns int
	Fragments        int
	Redundancy       float64
	// StoredTriples counts what the sites store: each site's graph, a
	// triple its fragments share counted once, plus the cold graph.
	// Redundancy is the logical figure, the fragments' sizes summed.
	StoredTriples    int
	WorkloadCoverage float64
	Balance          float64
}

// Stats reports the deployment's structural metrics (Figures 8, Table 1).
// Redundancy and Balance read the fragments' build sizes.
// Mining-related fields are zero for deployments restored with
// LoadDeployment (the snapshot stores fragments, not the mining run).
// Triples counts the hot and cold graphs' union: a hot triple parked in
// the cold fragment is one triple. ColdTriples counts the cold graph,
// parked hot triples included.
func (dep *Deployment) Stats() DeployStats {
	s := dep.mined
	s.Strategy, s.Sites = dep.cfg.Strategy, dep.cfg.Sites
	s.Triples = dep.hc.NumTriples()
	s.HotTriples, s.ColdTriples = dep.hc.Hot.NumTriples(), dep.hc.Cold.NumTriples()
	s.Fragments = len(dep.frag.Fragments)
	s.Redundancy = dep.frag.RedundancyOf(s.Triples)
	s.StoredTriples = s.ColdTriples
	for _, g := range dep.alloc.Graphs {
		s.StoredTriples += g.NumTriples()
	}
	s.Balance = dep.alloc.Balance()
	return s
}

// Explanation is a human-oriented description of how a query would run.
type Explanation = exec.Explanation

// ExplainStep is one subquery of an explanation.
type ExplainStep = exec.ExplainStep

// FragmentRef names a fragment and its site.
type FragmentRef = exec.FragmentRef

// Explain plans a query without executing it: decomposition, join order
// and fragment routing.
func (dep *Deployment) Explain(query string) (*Explanation, error) {
	q, err := sparql.NewLookupParser(dep.db.graph.Dict).Parse(query)
	if err != nil {
		return nil, err
	}
	return dep.engine.Explain(q)
}

// NetworkStats returns cumulative simulated network traffic.
func (dep *Deployment) NetworkStats() (messages, bytes int64) {
	return dep.cluster.Net.Snapshot()
}

// ResetNetworkStats zeroes the traffic counters.
func (dep *Deployment) ResetNetworkStats() { dep.cluster.Net.Reset() }

// Describe renders a human-readable deployment summary.
func (dep *Deployment) Describe() string {
	s := dep.Stats()
	return fmt.Sprintf(
		"strategy=%s sites=%d triples=%d (hot %d / cold %d) mined=%d selected=%d fragments=%d redundancy=%.2f stored=%d coverage=%.1f%% balance=%.2f",
		s.Strategy, s.Sites, s.Triples, s.HotTriples, s.ColdTriples,
		s.MinedPatterns, s.SelectedPatterns, s.Fragments, s.Redundancy,
		s.StoredTriples, 100*s.WorkloadCoverage, s.Balance)
}
