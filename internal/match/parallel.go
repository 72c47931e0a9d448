package match

// Morsel-driven parallel matching. The backtracking search is
// embarrassingly parallel in its root edge: every match extends exactly
// one candidate triple of the first edge in the search order, and the
// subtrees under distinct root candidates are independent. The parallel
// driver therefore splits the root edge's CSR candidate run into morsels
// (small contiguous index ranges) and fans them out to a worker pool.
// Each worker owns a private searcher — bindings array, cursor stack,
// result storage — and runs the existing zero-alloc backtracking over the
// morsels it claims from a shared dispatcher counter, so skewed runs
// (one root candidate hiding a huge subtree) cannot make a
// pre-partitioned worker straggle while the others idle: unclaimed
// morsels are up for grabs until the run ends.
//
// Determinism: morsels partition the root candidates in enumeration
// order, and within a morsel a worker searches in exactly the sequential
// order, so per-morsel result buckets concatenated in morsel order
// reproduce the sequential output byte for byte. Find merges that way;
// FindBatches and FindBindings stream batches as workers fill them
// (findBatched in matcher.go).
//
// Count and MatchedEdges do not fan out within a pattern: a tree pattern,
// which is what the offline pipeline asks them about, is reduced without
// a search (reduce.go), and any other is enumerated on the caller's
// goroutine, into one count or one edge set. The pipeline asks about
// hundreds of patterns at once — selection sizes every candidate,
// horizontal fragmentation every minterm, the dictionary counts every
// fragment — so the fan-out is over patterns instead: CountAll and
// MatchedEdgesAll hand one pattern at a time to each of parallelFor's
// workers, and put each result at its pattern's index.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

const (
	// parallelMinRoot is the smallest root candidate run worth fanning
	// out: below it the worker spawn overhead dwarfs the search.
	parallelMinRoot = 16
	// morselsPerWorker is the target number of morsels each worker gets
	// to claim; more morsels per worker means finer-grained stealing of
	// skewed subtrees at the cost of more dispatcher traffic.
	morselsPerWorker = 8
	// maxMorselSize caps how many root candidates one morsel spans, so
	// huge runs still split finely enough to rebalance.
	maxMorselSize = 256
)

// parallelRun is one planned morsel fan-out: the root edge's cursor as
// the sequential search would start it, and the shared dispatcher state.
// A morsel is a span of CSR positions of the cursor's run, or of its list;
// rdf.Cursor.Cut deals the delta entries out along the same cuts, so the
// morsels partition the sequential enumeration.
type parallelRun struct {
	q      *sparql.Graph
	g      *rdf.Snapshot
	filter func(qv int, id rdf.ID) bool // Options.VertexFilter
	order  []int                        // shared read-only edge order
	cut    int                          // the searchers' cut depth (Options.Keep)

	root candCursor // the root edge's cursor, at its start
	n    int        // positions to deal out: of root's CSR run, or of its list

	workers    int
	morselSize int // positions per morsel
	numMorsels int

	next atomic.Int64 // dispatcher: index of the next unclaimed morsel
	stop atomic.Bool  // kill switch: a callback returned false
}

// planParallel decides whether a run can fan out and plans the morsels
// if so, reusing the caller's already-computed edge order. It returns
// nil — caller falls back to the sequential path — when parallelism is
// disabled (Parallelism 1, or GOMAXPROCS 1), a Limit is set (sequential
// keeps the exact first-Limit semantics), or the root candidate run is
// too small to be worth splitting. The decline checks run before any
// allocation, so selective subqueries pay only the root-run resolution.
func planParallel(q *sparql.Graph, g *rdf.Snapshot, opts Options, order []int) *parallelRun {
	if opts.Limit > 0 || len(q.Edges) == 0 {
		return nil
	}
	workers := opts.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return nil
	}
	// The root's candidates are what initCursor would pick with nothing
	// bound but the constants — nothing else is at depth 0.
	e := q.Edges[order[0]]
	from, to := rdf.NoID, rdf.NoID
	if v := q.Verts[e.From]; !v.IsVar() {
		from = v.Term
	}
	if v := q.Verts[e.To]; !v.IsVar() {
		to = v.Term
	}
	var root candCursor
	root.pick(g, e, from, to)

	// Morsel geometry is defined on the CSR run (a fully-ground root has
	// at most one entry of it: nothing to split). A root whose CSR run is
	// too small to split stays sequential even if its delta is large —
	// the delta is bounded by the compaction threshold, so that case is
	// transient.
	n := root.run.BaseLen() + len(root.list)
	if n < parallelMinRoot {
		return nil
	}
	r := &parallelRun{q: q, g: g, filter: opts.VertexFilter, order: order, cut: cutDepth(q, order, opts.Keep), root: root, n: n}
	r.morselSize = min(max(n/(workers*morselsPerWorker), 1), maxMorselSize)
	r.numMorsels = (n + r.morselSize - 1) / r.morselSize
	r.workers = min(workers, r.numMorsels)
	return r
}

// runMorsel searches under one morsel's root candidates, in the
// sequential enumeration order.
func (r *parallelRun) runMorsel(s *searcher, morsel int) {
	lo := morsel * r.morselSize
	hi := min(lo+r.morselSize, r.n)
	cur := r.root
	if cur.dir == curList {
		cur.list = cur.list[lo:hi]
	} else {
		cur.run.Cut(lo, hi)
	}
	s.search(0, &cur)
}

// workerHooks is one worker's private result plumbing. onMatch sees every
// match of the worker's current morsel (the *Match is reused — clone to
// keep); returning false trips the shared kill switch. finish runs once
// as the worker exits, for flushing worker-local accumulators.
type workerHooks struct {
	onMatch func(morsel int, m *Match) bool
	finish  func()
}

// run fans the morsels out to the planned workers and blocks until all
// are done. newWorker is called once per worker, from that worker's
// goroutine, to build its private hooks.
func (r *parallelRun) run(newWorker func(w int) workerHooks) {
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(newWorker(w))
		}(w)
	}
	wg.Wait()
}

// worker claims morsels from the dispatcher until none remain (or the
// kill switch trips) and runs the backtracking search over each claimed
// slice with a private searcher.
func (r *parallelRun) worker(h workerHooks) {
	if h.finish != nil {
		defer h.finish()
	}
	q, g := r.q, r.g
	s := &searcher{
		q:      q,
		g:      g,
		filter: r.filter,
		order:  r.order,
		m: Match{
			Vertex:  make([]rdf.ID, len(q.Verts)),
			Triples: make([]rdf.Triple, len(q.Edges)),
		},
		bound: make([]bool, len(q.Verts)),
		stop:  &r.stop,
		cut:   r.cut,
	}
	for i, v := range q.Verts {
		if !v.IsVar() {
			s.m.Vertex[i] = v.Term
			s.bound[i] = true
		}
	}
	morsel := -1
	s.fn = func(m *Match) bool { return h.onMatch(morsel, m) }

	for !r.stop.Load() {
		morsel = int(r.next.Add(1)) - 1
		if morsel >= r.numMorsels {
			return
		}
		r.runMorsel(s, morsel)
		if s.done {
			r.stop.Store(true)
			return
		}
	}
}

// parallelFor calls fn(i) for every i below n, on up to GOMAXPROCS
// goroutines, the caller's among them, that claim indices from a shared
// counter until none is left, so a slow item holds up one worker only.
func parallelFor(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// find is the parallel Find body: clone matches into per-morsel buckets
// and concatenate them in morsel order — exactly the sequential output.
func (r *parallelRun) find() []Match {
	buckets := make([][]Match, r.numMorsels)
	r.run(func(int) workerHooks {
		return workerHooks{onMatch: func(morsel int, m *Match) bool {
			buckets[morsel] = append(buckets[morsel], m.clone())
			return true
		}}
	})
	var out []Match
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}
