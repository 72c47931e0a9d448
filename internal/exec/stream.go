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
	"math/bits"
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
// come from this engine and a structurally identical query graph — or,
// for a baseline placement (internal/baseline), from the baseline's own
// decomposition, whose subqueries are all global.
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

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &runStats{sites: make(map[int]bool), unreachable: make(map[int]bool)}
	errCh := make(chan error, len(dcp.Subqueries))

	// One producer per subquery, streaming batches from its sites. The
	// whole worker budget goes to them — a control-site join stage is one
	// goroutine — divided across the concurrent subquery producers here
	// and across each subquery's sites below, whose graphs evaluate one
	// after the other, so total morsel-worker demand stays near the
	// budget instead of multiplying with the fan-out.
	sqPar := par / len(dcp.Subqueries)
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
	// result stream with subquery Order[k]'s stream. Their emit order is
	// whatever the arrival order makes it; consume dedups and sorts the
	// final rows.
	cur, curVars := (<-chan *match.Bindings)(streams[pl.Order[0]]), vars[pl.Order[0]]
	for _, idx := range pl.Order[1:] {
		next := make(chan *match.Bindings, streamBuf)
		go cluster.JoinStream(ctx, curVars, vars[idx], cur, streams[idx], next)
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
// deterministic output. It holds one input batch at a time: each is
// projected into the answer as it arrives — an array of match's free list,
// grown through it — and released at once, so its array is there for the
// next batch or probe to take. Without a pushed-down LIMIT the final sort
// drops duplicates as neighbours. With one, distinct rows must be counted
// as they arrive: once Limit of them survive projection the whole
// pipeline is cancelled instead of materializing the rest.
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
	// appendRows appends b's rows from..to, projected, to dst.
	appendRows := func(dst []rdf.ID, b *match.Bindings, from, to int) []rdf.ID {
		if len(q.Select) == 0 {
			return append(dst, b.Rows[from*len(inVars):to*len(inVars)]...)
		}
		for i := from; i < to; i++ {
			row := b.Rows[i*len(inVars) : (i+1)*len(inVars)]
			for _, j := range proj {
				dst = append(dst, row[j])
			}
		}
		return dst
	}
	w := len(keptVars)

	// ORDER BY is applied by the caller, by the terms' renderings; stopping early
	// would change which rows survive, so only push the limit down for
	// unordered queries.
	limit := 0
	if q.Limit > 0 && len(q.OrderBy) == 0 {
		limit = q.Limit
	}
	var rows []rdf.ID
	n, seen := 0, rowSet{w: w}
	for b := range in {
		rows = match.GrowRows(rows, b.Len()*w)
		if limit == 0 {
			rows, n = appendRows(rows, b, 0, b.Len()), n+b.Len()
		} else {
			for i := 0; i < b.Len() && seen.n < limit; i++ {
				if rows = appendRows(rows, b, i, i+1); !seen.insert(rows) {
					rows = rows[:len(rows)-w]
				}
			}
			n = seen.n
		}
		b.Release()
		if limit > 0 && n >= limit {
			cancel() // stop producers and join stages
			break
		}
	}
	out := match.Recyclable(keptVars, rows, n)
	out.Dedup()
	return out
}

// rowSet tells the distinct rows of a flat array of w-wide rows that is
// being filled: an open-addressed table of row numbers that compares rows
// where they lie, so no key is materialized at any width.
type rowSet struct {
	w     int
	n     int     // distinct rows so far: the array's first n
	slots []int32 // 1 + a row number; 0: free
}

func rowHash(row []rdf.ID) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for _, v := range row {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h * 0x9E3779B97F4A7C15
}

// place returns the slot that holds row's number, or the free slot where
// it belongs; rows is the array the numbers in the slots refer to.
func (s *rowSet) place(rows, row []rdf.ID) *int32 {
	for i := rowHash(row) >> (64 - bits.Len(uint(len(s.slots))) + 1); ; i = (i + 1) & uint64(len(s.slots)-1) {
		r := int(s.slots[i])
		if r == 0 || slices.Equal(rows[(r-1)*s.w:r*s.w], row) {
			return &s.slots[i]
		}
	}
}

// insert takes rows, the n distinct rows so far followed by one more, and
// reports whether that one is new; if so it is row n from now on.
func (s *rowSet) insert(rows []rdf.ID) bool {
	if (s.n+1)*4 > len(s.slots)*3 {
		s.slots = make([]int32, max(16, 2*len(s.slots)))
		for r := 0; r < s.n; r++ {
			*s.place(rows, rows[r*s.w:(r+1)*s.w]) = int32(r + 1)
		}
	}
	slot := s.place(rows, rows[s.n*s.w:(s.n+1)*s.w])
	if *slot != 0 {
		return false
	}
	s.n++
	*slot = int32(s.n)
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
				Keep:        sq.Keep,
				View:        view,
				Parallelism: sitePar,
			}, e.BatchSize, func(b *match.Bindings) error {
				st.rows.Add(int64(b.Len()))
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
