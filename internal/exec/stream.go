package exec

// Push-based query execution. Execute expands a plan into units,
// one per subquery and site it is routed to, and runs every unit but the
// last on a goroutine of its own, the last on the caller's. A unit pushes
// each batch its site ships (cluster.SiteEval.EvalStream) into its
// subquery's input of a chain of symmetric hash joins (cluster.Joiner) in
// the optimizer's order, whose last stage hands its rows to the answer.
// Join work thus runs on the producers' goroutines, overlapping
// evaluation and shipping, and a query of one subquery at one site runs
// on its caller's goroutine alone.
// An unordered LIMIT stops every unit once enough distinct rows survive
// projection, and a plan's deadline every unit once it passes.

import (
	"cmp"
	"context"
	"errors"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// errLimit refuses a push once the query's LIMIT is satisfied.
var errLimit = errors.New("exec: limit reached")

// unit is one subquery's evaluation at one site.
type unit struct {
	sq    int // the subquery's index in the decomposition
	route siteFrags
}

// inlet is where a subquery's batches go: a join stage's input, or the
// answer.
type inlet struct {
	stage   cluster.Stage
	left    bool
	vars    []string     // the subquery's variables, its batches' columns
	running atomic.Int32 // the subquery's units not yet finished
}

// execution is one run of a plan: its units' shared state. Executions
// are pooled: a query takes one when it starts and puts it back once
// every unit has joined, so what a run needs besides its answer is not
// allocated again for each query.
type execution struct {
	e        *Engine
	ctx      context.Context
	cancel   context.CancelFunc // nil when one in-process unit runs
	deadline time.Time          // Prepared.Deadline
	subs     []*decompose.Subquery
	view     *rdf.ViewHandle
	inlets   []inlet
	units    []unit
	ans      answer
	rows     atomic.Int64 // binding rows shipped

	mu          sync.Mutex
	err         error // the first unit's error that fails the query
	unreachable []int // sites skipped in PartialResults mode
}

var executions = sync.Pool{New: func() any { return new(execution) }}

// QueryPrepared executes q with a previously prepared plan. The plan must
// come from this engine and a structurally identical query graph — or,
// for a baseline placement (internal/baseline), from the baseline's own
// decomposition, whose subqueries are all global.
func (e *Engine) QueryPrepared(ctx context.Context, q *sparql.Graph, prep *Prepared) (*match.Bindings, *QueryStats, error) {
	stats := new(QueryStats)
	b, err := e.Execute(ctx, q, prep, stats)
	if err != nil {
		return nil, nil, err
	}
	return b, stats, nil
}

// Execute is QueryPrepared writing the query's statistics to stats, which
// the caller owns: a server hands in the field of the result it answers
// with, so one object carries them from here to the response writer.
// stats is unspecified when an error is returned.
func (e *Engine) Execute(ctx context.Context, q *sparql.Graph, prep *Prepared, stats *QueryStats) (*match.Bindings, error) {
	dcp, pl := prep.Dcp, prep.Plan
	*stats = QueryStats{
		Subqueries:        len(dcp.Subqueries),
		DecompositionCost: dcp.Cost,
		PlanCost:          pl.Cost,
	}
	if len(dcp.Subqueries) == 0 { // Prepare found a constant the data lacks
		var a answer
		a.init(q, q.Vars())
		return a.result(), nil
	}
	x := executions.Get().(*execution)
	defer x.release()
	x.e, x.ctx, x.deadline, x.subs, x.view = e, ctx, prep.Deadline, dcp.Subqueries, prep.View
	x.inlets = slices.Grow(x.inlets, len(x.subs))[:len(x.subs)]
	for i, sq := range x.subs {
		route, err := e.routeSubquery(sq)
		if err != nil {
			return nil, err
		}
		for _, r := range route {
			x.units = append(x.units, unit{sq: i, route: r})
		}
		x.inlets[i].vars = sq.Graph.Vars()
		x.inlets[i].running.Store(int32(len(route)))
	}
	x.chain(q, pl.Order)
	for i := range x.inlets {
		if in := &x.inlets[i]; in.running.Load() == 0 {
			in.stage.Close(in.left) // routed nowhere: no rows
		}
	}

	units := x.units
	switch n := len(units); {
	case n == 1 && !e.isRemote(units[0].route.site):
		x.run(&units[0]) // the site and the sink check the deadline
	case n > 0:
		// A unit beside others, or at a remote site, reads a context of
		// the execution's own: the first failure or a satisfied LIMIT
		// cancels the rest, and the deadline cuts a site that hangs.
		if x.deadline.IsZero() {
			x.ctx, x.cancel = context.WithCancel(ctx)
		} else {
			x.ctx, x.cancel = context.WithDeadline(ctx, x.deadline)
		}
		defer x.cancel()
		x.ans.stop = x.cancel
		var wg sync.WaitGroup
		wg.Add(n - 1)
		for i := range units[:n-1] {
			go func(u *unit) {
				defer wg.Done()
				x.run(u)
			}(&units[i])
		}
		x.run(&units[n-1])
		wg.Wait()
	}

	for i, u := range units {
		if !slices.ContainsFunc(units[:i], func(v unit) bool { return v.route.site == u.route.site }) {
			stats.SitesTouched++
		}
	}
	stats.IntermediateRows = int(x.rows.Load())
	slices.Sort(x.unreachable)
	stats.UnreachableSites = x.unreachable
	stats.Partial = len(x.unreachable) > 0

	err := cmp.Or(ctx.Err(), x.err)
	if err == nil && x.expired() {
		err = context.DeadlineExceeded
	}
	if err != nil {
		match.GiveRows(x.ans.rows)
		return nil, err
	}
	return x.ans.result(), nil
}

// isRemote reports whether a remote evaluator serves site.
func (e *Engine) isRemote(site int) bool {
	_, ok := e.Remotes[site]
	return ok
}

// expired reports whether the execution's deadline has passed.
func (x *execution) expired() bool {
	return !x.deadline.IsZero() && !time.Now().Before(x.deadline)
}

// release empties x, keeping its arrays, and pools it again. Every unit
// has joined: nothing refers to x any more — the answer's result owns
// its own row array and variable list.
func (x *execution) release() {
	clear(x.inlets)
	clear(x.units)
	*x = execution{inlets: x.inlets[:0], units: x.units[:0]}
	executions.Put(x)
}

// chain builds the pipelined joins in optimizer order — stage k joins the
// running result, its left input, with subquery order[k], its right — and
// points each subquery's inlet at its input, the last stage's output at
// the answer. The stages' emit order is whatever the arrival order makes
// it; the answer dedups and sorts the final rows.
func (x *execution) chain(q *sparql.Graph, order []int) {
	layouts := make([][]string, 1, 4) // layouts[k]: the running result's variables after stage k
	layouts[0] = x.inlets[order[0]].vars
	for k, i := range order[1:] {
		layouts = append(layouts, cluster.JoinVars(layouts[k], x.inlets[i].vars))
	}
	x.ans.init(q, layouts[len(order)-1])
	var next cluster.Stage = &x.ans
	for k := len(order) - 1; k > 0; k-- {
		next = cluster.NewJoiner(layouts[k-1], x.inlets[order[k]].vars, next)
		x.inlets[order[k]].stage = next
	}
	x.inlets[order[0]].stage, x.inlets[order[0]].left = next, true
}

// run evaluates one unit, pushing what its site ships into its
// subquery's inlet, which the subquery's last unit to finish closes. An
// in-process site reads the execution's pinned view; a remote one, whose
// evaluator retries and breaks, reads current fragment state — a view
// handle cannot travel across processes.
func (x *execution) run(u *unit) {
	in, sq := &x.inlets[u.sq], x.subs[u.sq]
	var err error
	if x.expired() {
		err = context.DeadlineExceeded
	} else {
		err = x.e.evaluatorFor(u.route.site).EvalStream(x.ctx, cluster.EvalRequest{
			SiteID:   u.route.site,
			FragIDs:  u.route.frags,
			Query:    sq.Graph,
			Keep:     sq.Keep,
			View:     x.view,
			Vars:     in.vars,
			Deadline: x.deadline,
		}, x.e.BatchSize, func(b *match.Bindings) error {
			if x.expired() {
				b.Release()
				return context.DeadlineExceeded
			}
			x.rows.Add(int64(b.Len()))
			return in.stage.Push(b, in.left)
		})
	}
	// A satisfied LIMIT and a cancel are not failures: the answer is
	// complete, or the caller's context says why it is not. In
	// PartialResults mode an unavailable site (retries exhausted or
	// breaker open) is skipped and the result flagged partial; any other
	// error fails the query and stops the other units.
	switch {
	case err == nil, errors.Is(err, errLimit), errors.Is(err, context.Canceled):
	case x.e.PartialResults && errors.Is(err, cluster.ErrSiteUnavailable) && x.ctx.Err() == nil:
		x.mu.Lock()
		if !slices.Contains(x.unreachable, u.route.site) {
			x.unreachable = append(x.unreachable, u.route.site)
		}
		x.mu.Unlock()
	default:
		x.mu.Lock()
		x.err = cmp.Or(x.err, err)
		x.mu.Unlock()
		if x.cancel != nil {
			x.cancel()
		}
	}
	if in.running.Add(-1) == 0 {
		in.stage.Close(in.left)
	}
}

// answer is the end of a query's join chain: it projects each batch
// pushed to it into the answer's one row array — taken from match's free
// list and grown through it — and releases the batch at once, so its
// array is there for the next batch or probe to take. The result is
// distinct and sorted (Dedup order), the engine's historical
// deterministic output. Without a pushed-down LIMIT the final sort drops
// duplicates as neighbours. With one, distinct rows must be counted as
// they arrive: once Limit of them survive projection, every push is
// refused with errLimit, and stop, when set, cancels the other units.
type answer struct {
	mu      sync.Mutex
	fewCols [8]int // a narrow projection's columns, without an allocation
	proj    []int  // the projected columns of an input row; nil: all, in place
	inW     int    // input row width
	vars    []string
	limit   int
	stop    context.CancelFunc
	rows    []rdf.ID
	n       int
	seen    rowSet
}

// init resolves q's projection against the joined layout inVars: its
// selected variables, or under SELECT * all of them sorted, as q.Vars().
func (a *answer) init(q *sparql.Graph, inVars []string) {
	want := q.Select
	if len(want) == 0 && !slices.IsSorted(inVars) {
		want = slices.Sorted(slices.Values(inVars))
	}
	a.inW, a.vars = len(inVars), inVars // every column, in place
	if len(want) > 0 && !slices.Equal(want, inVars) {
		a.proj, a.vars = a.fewCols[:0], make([]string, 0, len(want))
		for _, v := range want {
			if i := slices.Index(inVars, v); i >= 0 {
				a.proj = append(a.proj, i)
				a.vars = append(a.vars, v)
			}
		}
	}
	a.seen.w = len(a.vars)
	// ORDER BY is applied by the caller, by the terms' renderings;
	// stopping early would change which rows survive, so only push the
	// limit down for unordered queries.
	if q.Limit > 0 && len(q.OrderBy) == 0 {
		a.limit = q.Limit
	}
}

// appendRows appends b's rows from..to, projected, to dst.
func (a *answer) appendRows(dst []rdf.ID, b *match.Bindings, from, to int) []rdf.ID {
	if a.proj == nil {
		return append(dst, b.Rows[from*a.inW:to*a.inW]...)
	}
	for i := from; i < to; i++ {
		row := b.Rows[i*a.inW : (i+1)*a.inW]
		for _, j := range a.proj {
			dst = append(dst, row[j])
		}
	}
	return dst
}

// Push projects b into the answer and releases it.
func (a *answer) Push(b *match.Bindings, _ bool) error {
	defer b.Release()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit > 0 && a.n >= a.limit {
		return errLimit
	}
	w := len(a.vars)
	a.rows = match.GrowRows(a.rows, b.Len()*w)
	if a.limit == 0 {
		a.rows, a.n = a.appendRows(a.rows, b, 0, b.Len()), a.n+b.Len()
		return nil
	}
	for i := 0; i < b.Len() && a.seen.n < a.limit; i++ {
		if a.rows = a.appendRows(a.rows, b, i, i+1); !a.seen.insert(a.rows) {
			a.rows = a.rows[:len(a.rows)-w]
		}
	}
	if a.n = a.seen.n; a.n < a.limit {
		return nil
	}
	if a.stop != nil {
		a.stop()
	}
	return errLimit
}

func (a *answer) Close(bool) {} // the end of the chain: nothing waits on it

// result returns the answer, distinct and sorted.
func (a *answer) result() *match.Bindings {
	out := match.Recyclable(a.vars, a.rows, a.n)
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
