package exec

// Streaming query execution. The materialization barrier of the original
// engine (evaluate every subquery fully, then join sequentially) is
// replaced by a pipeline: each subquery's sites push binding batches over
// a channel as the local matcher finds them, and a chain of symmetric
// hash-join operators (cluster.JoinStream) consumes those streams in the
// optimizer's order. Join work overlaps with evaluation and shipping, so
// query latency tracks the slowest chain through the pipeline rather than
// the sum of barrier-separated phases — and LIMIT queries cancel the
// whole pipeline as soon as enough rows survive projection.

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// streamBuf is the per-stage channel depth: enough to decouple producer
// and consumer bursts without hoarding batches.
const streamBuf = 4

// runStats collects execution metrics from concurrently running pipeline
// stages.
type runStats struct {
	rows  atomic.Int64
	mu    sync.Mutex
	sites map[int]bool
	// unreachable collects sites skipped in PartialResults mode; any
	// entry flags the whole result partial.
	unreachable map[int]bool
}

func (st *runStats) touch(sites []int) {
	st.mu.Lock()
	for _, s := range sites {
		st.sites[s] = true
	}
	st.mu.Unlock()
}

func (st *runStats) skip(site int) {
	st.mu.Lock()
	st.unreachable[site] = true
	st.mu.Unlock()
}

// unreachableSites returns the skipped sites in ascending order.
func (st *runStats) unreachableSites() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.unreachable))
	for s := range st.unreachable {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// siteCount reads the touched-site tally; producers may still be running
// when the pipeline is cancelled early, so the read must take the lock.
func (st *runStats) siteCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sites)
}

// QueryPrepared executes q with a previously prepared plan. The plan must
// come from this engine and a structurally identical query graph.
func (e *Engine) QueryPrepared(ctx context.Context, q *sparql.Graph, prep *Prepared) (*match.Bindings, *QueryStats, error) {
	dcp, pl := prep.Dcp, prep.Plan
	stats := &QueryStats{
		Subqueries:        len(dcp.Subqueries),
		DecompositionCost: dcp.Cost,
		PlanCost:          pl.Cost,
	}
	par := prep.Parallelism
	if par == 0 {
		par = e.Parallelism
	}
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	stats.Parallelism = par

	vars := make([][]string, len(dcp.Subqueries))
	for i, sq := range dcp.Subqueries {
		vars[i] = sq.Graph.Vars()
	}

	// Split the worker grant between the subquery producers and the
	// control-site join pipeline: when the plan has partitionable join
	// stages and a budget worth splitting, half the budget funds join
	// partitions (divided across those stages) and the producers divide
	// the rest — so total worker demand stays near the budget instead of
	// multiplying. Only stages whose inputs share a variable count:
	// Cartesian stages always run single-partition in cluster, so
	// charging the budget for them would starve the producers for
	// workers the join never uses. An explicit Prepared/engine
	// JoinPartitions override replaces the derived count (clamped to
	// cluster's cap). joinPar of 1 keeps the sequential symmetric join
	// and leaves the whole budget with the producers.
	joinStages := len(pl.Order) - 1
	joinPar := 0
	sqBudget := par
	if joinStages > 0 {
		partStages := countPartitionableStages(pl.Order, vars)
		if partStages > 0 {
			switch {
			case prep.JoinPartitions > 0:
				joinPar = prep.JoinPartitions
			case e.JoinPartitions > 0:
				joinPar = e.JoinPartitions
			case par > 1:
				joinPar = par / 2 / partStages
			}
			if joinPar > cluster.MaxJoinPartitions {
				joinPar = cluster.MaxJoinPartitions
			}
		}
		if joinPar < 1 {
			joinPar = 1
		}
		if joinPar > 1 {
			sqBudget = par - joinPar*partStages
			if sqBudget < 1 {
				sqBudget = 1
			}
		}
	}
	stats.JoinPartitions = joinPar
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &runStats{sites: make(map[int]bool), unreachable: make(map[int]bool)}
	errCh := make(chan error, len(dcp.Subqueries))

	// One producer per subquery, streaming batches from its sites. The
	// producers' share of the worker budget is divided across the
	// concurrent subquery producers here, across each subquery's sites
	// below, and across a site's fragments in cluster — so total
	// morsel-worker demand stays near the budget instead of multiplying
	// with the fan-out.
	sqPar := sqBudget / len(dcp.Subqueries)
	if sqPar < 1 {
		sqPar = 1
	}
	streams := make([]chan *match.Bindings, len(dcp.Subqueries))
	for i, sq := range dcp.Subqueries {
		streams[i] = make(chan *match.Bindings, streamBuf)
		go func(sq *decompose.Subquery, out chan *match.Bindings) {
			defer close(out)
			if err := e.evalSubqueryStream(ctx, sq, prep.View, sqPar, out, st); err != nil {
				errCh <- err
				cancel()
			}
		}(sq, streams[i])
	}

	// Chain pipelined joins in optimizer order: stage k joins the running
	// result stream with subquery Order[k]'s stream, fanned out over
	// joinPar shared-nothing partitions. Streaming merge mode: consume
	// dedups and sorts the final rows, so the deterministic
	// (materialize-then-emit) merge would only add latency here.
	cur, curVars := (<-chan *match.Bindings)(streams[pl.Order[0]]), vars[pl.Order[0]]
	for _, idx := range pl.Order[1:] {
		next := make(chan *match.Bindings, streamBuf)
		go cluster.JoinStreamOpts(ctx, curVars, vars[idx], cur, streams[idx], next, cluster.JoinOptions{Partitions: joinPar})
		cur, curVars = next, cluster.JoinVars(curVars, vars[idx])
	}

	out := e.consume(ctx, cancel, q, cur, curVars)
	stats.SitesTouched = st.siteCount()
	stats.IntermediateRows = int(st.rows.Load())
	stats.UnreachableSites = st.unreachableSites()
	stats.Partial = len(stats.UnreachableSites) > 0

	if err := parent.Err(); err != nil {
		return nil, nil, err
	}
	select {
	case err := <-errCh:
		// context.Canceled here can only be the pipeline's own
		// early-termination cancel (LIMIT satisfied); a caller cancel was
		// caught via parent above.
		if !errors.Is(err, context.Canceled) {
			return nil, nil, err
		}
	default:
	}
	return out, stats, nil
}

// consume drains the final join stream into the result: projected,
// distinct and sorted (Dedup order), the engine's historical
// deterministic output. Without a pushed-down LIMIT it keeps the incoming
// batches — they are its own, see cluster.BatchSink — sizes the result
// once from their total and lets the final sort drop duplicates as
// neighbours. With one, distinct rows must be counted as they arrive:
// once Limit of them survive projection the whole pipeline is cancelled
// instead of materializing the rest.
func (e *Engine) consume(ctx context.Context, cancel context.CancelFunc, q *sparql.Graph, in <-chan *match.Bindings, inVars []string) *match.Bindings {
	// Resolve the projection once, against the full joined layout.
	var fewCols [8]int // a projection this narrow stays on the stack
	proj := fewCols[:0]
	keptVars := inVars
	if len(q.Select) > 0 {
		keptVars = make([]string, 0, len(q.Select))
		for _, v := range q.Select {
			if i := slices.Index(inVars, v); i >= 0 {
				proj = append(proj, i)
				keptVars = append(keptVars, v)
			}
		}
	}
	// ORDER BY is applied by the caller on decoded terms; stopping early
	// would change which rows survive, so only push the limit down for
	// unordered queries.
	var seen *rowSet // non-nil when q.Limit is pushed down
	if q.Limit > 0 && len(q.OrderBy) == 0 {
		seen = newRowSet(len(keptVars))
	}

	out := &match.Bindings{Vars: keptVars}
	// Most results arrive in a few batches; the list stays on the stack.
	var few [64][][]rdf.ID
	batches, total := few[:0], 0
	for b := range in {
		rows := b.Rows
		if len(q.Select) > 0 {
			projectRows(rows, proj)
		}
		if seen == nil {
			batches, total = append(batches, rows), total+len(rows)
			continue
		}
		for _, r := range rows {
			if !seen.insert(r) {
				continue
			}
			out.Rows = append(out.Rows, r)
			if len(out.Rows) >= q.Limit {
				cancel() // stop producers and join stages
				out.Dedup()
				return out
			}
		}
	}
	if total > 0 {
		out.Rows = make([][]rdf.ID, 0, total)
		for _, rows := range batches {
			out.Rows = append(out.Rows, rows...)
		}
	}
	out.Dedup()
	return out
}

// projectRows replaces every row by its projection onto the columns
// proj, carved from one backing array for the whole batch.
func projectRows(rows [][]rdf.ID, proj []int) {
	w := len(proj)
	flat := make([]rdf.ID, len(rows)*w)
	for i, row := range rows {
		r := flat[i*w : (i+1)*w : (i+1)*w]
		for k, j := range proj {
			r[k] = row[j]
		}
		rows[i] = r
	}
}

// countPartitionableStages walks the join order and counts the stages a
// partition grant can actually fan out, per cluster's own
// shared-variable rule (Cartesian stages run single-partition
// regardless).
func countPartitionableStages(order []int, vars [][]string) int {
	n := 0
	cv := vars[order[0]]
	for _, idx := range order[1:] {
		if cluster.Partitionable(cv, vars[idx]) {
			n++
		}
		cv = cluster.JoinVars(cv, vars[idx])
	}
	return n
}

// maxPackedCols is how many columns fit the fixed-size packed dedup key;
// it mirrors cluster's join-table keys. Almost every projection is ≤4
// columns wide; wider rows fall back to string keys.
const maxPackedCols = 4

// rowSet dedups binding rows without materializing a string per row: rows
// up to maxPackedCols wide key a map by packed [4]rdf.ID value arrays
// (all rows of one result set share a width, so zero padding cannot
// collide). It removes the last per-row string materialization in the
// query path.
type rowSet struct {
	packed map[[maxPackedCols]rdf.ID]struct{}
	str    map[string]struct{}
}

func newRowSet(width int) *rowSet {
	if width <= maxPackedCols {
		return &rowSet{packed: make(map[[maxPackedCols]rdf.ID]struct{})}
	}
	return &rowSet{str: make(map[string]struct{})}
}

// insert adds the row, reporting whether it was new.
func (s *rowSet) insert(r []rdf.ID) bool {
	if s.packed != nil {
		var k [maxPackedCols]rdf.ID
		copy(k[:], r)
		if _, ok := s.packed[k]; ok {
			return false
		}
		s.packed[k] = struct{}{}
		return true
	}
	b := make([]byte, 0, len(r)*4)
	for _, id := range r {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	k := string(b)
	if _, ok := s.str[k]; ok {
		return false
	}
	s.str[k] = struct{}{}
	return true
}

// evalSubqueryStream routes one subquery to the sites holding its
// relevant fragments and streams their binding batches into out,
// dividing the subquery's worker budget across its concurrent sites. It
// returns once every site's stream is exhausted (or ctx is cancelled).
// Every site evaluation reads from view, the execution's pinned cut.
func (e *Engine) evalSubqueryStream(ctx context.Context, sq *decompose.Subquery, view *rdf.ViewHandle, par int, out chan<- *match.Bindings, st *runStats) error {
	bySite, err := e.routeSubquery(sq)
	if err != nil {
		return err
	}
	sites := make([]int, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	st.touch(sites)
	sitePar := 1
	if len(sites) > 0 {
		sitePar = par / len(sites)
		if sitePar < 1 {
			sitePar = 1
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, s := range sites {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Remote sites get their own evaluator (retries, breaker);
			// they read current fragment state rather than the pinned
			// view — a view handle cannot travel across processes.
			err := e.evaluatorFor(s).EvalStream(ctx, cluster.EvalRequest{
				SiteID:      s,
				FragIDs:     bySite[s],
				Query:       sq.Graph,
				View:        view,
				Parallelism: sitePar,
			}, e.BatchSize, func(b *match.Bindings) error {
				st.rows.Add(int64(len(b.Rows)))
				select {
				case out <- b:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
			if err != nil {
				// Degrade gracefully if configured: an unavailable site
				// (retries exhausted or breaker open) is skipped and the
				// result flagged partial instead of failing the query.
				if e.PartialResults && errors.Is(err, cluster.ErrSiteUnavailable) && ctx.Err() == nil {
					st.skip(s)
					return
				}
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return firstErr
}
