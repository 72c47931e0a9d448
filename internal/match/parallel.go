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
// reproduce the sequential output byte for byte. Find always merges that
// way; FindBatches and FindBindings do when Options.Deterministic is set
// and otherwise stream batches as workers fill them (findBatched in
// matcher.go). Count and MatchedEdges produce a number and a set, which
// have no order to keep.

import (
	"runtime"
	"slices"
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

// parallelRun is one planned morsel fan-out: the root edge's candidate
// slice (a zero-copy CSR run), its filter parameters, and the shared
// dispatcher state.
type parallelRun struct {
	q     *sparql.Graph
	g     *rdf.Snapshot
	opts  Options
	order []int // shared read-only edge order

	rootIdx  int // index of the root edge in q.Edges
	rootEdge sparql.Edge

	// Root candidates: exactly one of half/tris is non-nil, mirroring
	// candCursor's curHalf and curTris modes. dhalf/dtris are the insert
	// delta runs of a live-updated graph (nil without a delta) and
	// thalf/ttris the tombstone runs (nil on insert-only snapshots);
	// the sequential cursor merge-walks the runs in sorted order, so the
	// morsels partition that merged sequence.
	half  []rdf.HalfEdge
	dhalf []rdf.DeltaHalf
	thalf []rdf.DeltaHalf
	tris  []rdf.Triple
	dtris []rdf.DeltaTriple
	ttris []rdf.DeltaTriple
	bound uint32 // snapshot visibility bound for the delta runs
	fixed rdf.ID // curHalf: the bound endpoint's data vertex
	other rdf.ID // curHalf: required far endpoint; NoID = unconstrained
	out   bool   // curHalf: fixed endpoint is the subject

	workers    int
	morselSize int // base-run candidates per morsel
	numMorsels int
	// dsplit[m] is the delta-run index where morsel m starts: the delta
	// elements ordered before morsel m's first base candidate belong to
	// earlier morsels. nil when the delta run is empty. tsplit carves
	// the tombstone run along the same boundaries. A key group — all
	// delta entries of one (P, Other) or (S, O) key — can never straddle
	// a boundary: boundaries are keyed on base candidates, same-key
	// entries compare equal, and the binary search puts them all on one
	// side, so each morsel resolves its keys' visibility independently
	// and byte-identical concatenation survives deletes.
	dsplit []int
	tsplit []int

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
	rootIdx := order[0]
	e := q.Edges[rootIdx]

	// Resolve the root candidate run against the constant bindings only
	// — nothing else is bound at depth 0. This mirrors initCursor's
	// bound-endpoint cases with s.bound[v] ⇔ the vertex is a constant,
	// including the delta-overlay runs of a live-updated graph.
	var (
		half         []rdf.HalfEdge
		dhalf, thalf []rdf.DeltaHalf
		tris         []rdf.Triple
		dtris, ttris []rdf.DeltaTriple
		fixed        rdf.ID
		other        = rdf.NoID
		out          bool
	)
	from, to := q.Verts[e.From], q.Verts[e.To]
	switch {
	case !from.IsVar() && !to.IsVar() && !e.IsPredVar():
		return nil // a single membership test: nothing to split
	case !from.IsVar():
		out = true
		fixed = from.Term
		if !to.IsVar() {
			other = to.Term
		}
		if e.IsPredVar() {
			half, dhalf, thalf = g.OutEdges2(from.Term)
		} else {
			half, dhalf, thalf = g.OutRun2(from.Term, e.Pred)
		}
	case !to.IsVar():
		fixed = to.Term
		if e.IsPredVar() {
			half, dhalf, thalf = g.InEdges2(to.Term)
		} else {
			half, dhalf, thalf = g.InRun2(to.Term, e.Pred)
		}
	case !e.IsPredVar():
		tris, dtris, ttris = g.ByPredicate2(e.Pred)
	default:
		tris = g.Triples() // enumeration order already folds the delta and deletes
	}

	// Morsel geometry is defined on the base run; the (small) delta run
	// is carved along the same boundaries by binary search, so morsel
	// buckets concatenated in morsel order still reproduce the sequential
	// merged enumeration. A root whose base run is too small to split
	// stays sequential even if its delta is large — the delta is bounded
	// by the compaction threshold, so that case is transient.
	n := len(half) + len(tris)
	if n < parallelMinRoot {
		return nil
	}
	r := &parallelRun{
		q: q, g: g, opts: opts, order: order,
		rootIdx: rootIdx, rootEdge: e,
		half: half, dhalf: dhalf, thalf: thalf,
		tris: tris, dtris: dtris, ttris: ttris,
		bound: g.Bound(),
		fixed: fixed, other: other, out: out,
	}
	r.morselSize = n / (workers * morselsPerWorker)
	if r.morselSize < 1 {
		r.morselSize = 1
	}
	if r.morselSize > maxMorselSize {
		r.morselSize = maxMorselSize
	}
	r.numMorsels = (n + r.morselSize - 1) / r.morselSize
	if workers > r.numMorsels {
		workers = r.numMorsels
	}
	r.workers = workers
	if len(dhalf)+len(dtris) > 0 {
		r.dsplit = make([]int, r.numMorsels+1)
		r.dsplit[r.numMorsels] = len(dhalf) + len(dtris)
		for m := 1; m < r.numMorsels; m++ {
			if half != nil {
				r.dsplit[m], _ = slices.BinarySearchFunc(dhalf, half[m*r.morselSize],
					func(a rdf.DeltaHalf, b rdf.HalfEdge) int { return rdf.CompareHalf(a.H, b) })
			} else {
				r.dsplit[m], _ = slices.BinarySearchFunc(dtris, tris[m*r.morselSize],
					func(a rdf.DeltaTriple, b rdf.Triple) int { return rdf.CompareSO(a.T, b) })
			}
		}
	}
	if len(thalf)+len(ttris) > 0 {
		r.tsplit = make([]int, r.numMorsels+1)
		r.tsplit[r.numMorsels] = len(thalf) + len(ttris)
		for m := 1; m < r.numMorsels; m++ {
			if half != nil {
				r.tsplit[m], _ = slices.BinarySearchFunc(thalf, half[m*r.morselSize],
					func(a rdf.DeltaHalf, b rdf.HalfEdge) int { return rdf.CompareHalf(a.H, b) })
			} else {
				r.tsplit[m], _ = slices.BinarySearchFunc(ttris, tris[m*r.morselSize],
					func(a rdf.DeltaTriple, b rdf.Triple) int { return rdf.CompareSO(a.T, b) })
			}
		}
	}
	return r
}

// runMorsel merge-walks one morsel — its base sub-run and the delta
// elements the dsplit boundaries assign to it — in the sequential cursor's
// enumeration order, expanding every candidate that survives the run's
// predicate/endpoint filters.
func (r *parallelRun) runMorsel(s *searcher, morsel int) {
	blo := morsel * r.morselSize
	bhi := blo + r.morselSize
	if n := len(r.half) + len(r.tris); bhi > n {
		bhi = n
	}
	dlo, dhi := 0, 0
	if r.dsplit != nil {
		dlo, dhi = r.dsplit[morsel], r.dsplit[morsel+1]
	}
	if r.tsplit != nil {
		r.runMorselTomb(s, blo, bhi, dlo, dhi, r.tsplit[morsel], r.tsplit[morsel+1])
		return
	}
	if r.tris != nil {
		i, j := blo, dlo
		for !s.done {
			for j < dhi && r.dtris[j].Seq >= r.bound {
				j++
			}
			if i >= bhi && j >= dhi {
				break
			}
			var tr rdf.Triple
			if i < bhi && (j >= dhi || rdf.CompareSO(r.tris[i], r.dtris[j].T) <= 0) {
				tr = r.tris[i]
				i++
			} else {
				tr = r.dtris[j].T
				j++
			}
			s.expandRoot(r.rootIdx, tr)
		}
		return
	}
	i, j := blo, dlo
	for !s.done {
		for j < dhi && r.dhalf[j].Seq >= r.bound {
			j++
		}
		if i >= bhi && j >= dhi {
			break
		}
		var h rdf.HalfEdge
		if i < bhi && (j >= dhi || rdf.CompareHalf(r.half[i], r.dhalf[j].H) <= 0) {
			h = r.half[i]
			i++
		} else {
			h = r.dhalf[j].H
			j++
		}
		if r.other != rdf.NoID && h.Other != r.other {
			continue
		}
		var t rdf.Triple
		if r.out {
			t = rdf.Triple{S: r.fixed, P: h.P, O: h.Other}
		} else {
			t = rdf.Triple{S: h.Other, P: h.P, O: r.fixed}
		}
		s.expandRoot(r.rootIdx, t)
	}
}

// runMorselTomb is runMorsel for snapshots whose visible window contains
// deletes: a group-wise three-run merge over the morsel's base, insert,
// and tombstone sub-ranges, mirroring the sequential cursor's
// nextHalfTomb/nextTrisTomb so the concatenated morsel output stays
// byte-identical to the sequential enumeration.
func (r *parallelRun) runMorselTomb(s *searcher, blo, bhi, dlo, dhi, tlo, thi int) {
	if r.tris != nil {
		i, j, k := blo, dlo, tlo
		for !s.done && (i < bhi || j < dhi || k < thi) {
			var key rdf.Triple
			have := false
			if i < bhi {
				key, have = r.tris[i], true
			}
			if j < dhi && (!have || rdf.CompareSO(r.dtris[j].T, key) < 0) {
				key, have = r.dtris[j].T, true
			}
			if k < thi && (!have || rdf.CompareSO(r.ttris[k].T, key) < 0) {
				key = r.ttris[k].T
			}
			basePresent := i < bhi && r.tris[i] == key
			if basePresent {
				i++
			}
			var insVis, tombVis bool
			var insSeq, tombSeq uint32
			for ; j < dhi && r.dtris[j].T == key; j++ {
				if sq := r.dtris[j].Seq; sq < r.bound && (!insVis || sq > insSeq) {
					insVis, insSeq = true, sq
				}
			}
			for ; k < thi && r.ttris[k].T == key; k++ {
				if sq := r.ttris[k].Seq; sq < r.bound && (!tombVis || sq > tombSeq) {
					tombVis, tombSeq = true, sq
				}
			}
			if !rdf.VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq) {
				continue
			}
			s.expandRoot(r.rootIdx, key)
		}
		return
	}
	i, j, k := blo, dlo, tlo
	for !s.done && (i < bhi || j < dhi || k < thi) {
		var key rdf.HalfEdge
		have := false
		if i < bhi {
			key, have = r.half[i], true
		}
		if j < dhi && (!have || rdf.CompareHalf(r.dhalf[j].H, key) < 0) {
			key, have = r.dhalf[j].H, true
		}
		if k < thi && (!have || rdf.CompareHalf(r.thalf[k].H, key) < 0) {
			key = r.thalf[k].H
		}
		basePresent := i < bhi && r.half[i] == key
		if basePresent {
			i++
		}
		var insVis, tombVis bool
		var insSeq, tombSeq uint32
		for ; j < dhi && r.dhalf[j].H == key; j++ {
			if sq := r.dhalf[j].Seq; sq < r.bound && (!insVis || sq > insSeq) {
				insVis, insSeq = true, sq
			}
		}
		for ; k < thi && r.thalf[k].H == key; k++ {
			if sq := r.thalf[k].Seq; sq < r.bound && (!tombVis || sq > tombSeq) {
				tombVis, tombSeq = true, sq
			}
		}
		if !rdf.VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq) {
			continue
		}
		if r.other != rdf.NoID && key.Other != r.other {
			continue
		}
		var t rdf.Triple
		if r.out {
			t = rdf.Triple{S: r.fixed, P: key.P, O: key.Other}
		} else {
			t = rdf.Triple{S: key.Other, P: key.P, O: r.fixed}
		}
		s.expandRoot(r.rootIdx, t)
	}
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
		q:     q,
		g:     g,
		opts:  r.opts,
		order: r.order,
		m: Match{
			Vertex:  make([]rdf.ID, len(q.Verts)),
			Pred:    make(map[string]rdf.ID),
			Triples: make([]rdf.Triple, len(q.Edges)),
		},
		bound: make([]bool, len(q.Verts)),
		stop:  &r.stop,
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

// count is the parallel Count body: worker-local tallies, summed at
// worker exit — no per-match work at all.
func (r *parallelRun) count() int {
	var total atomic.Int64
	r.run(func(int) workerHooks {
		n := 0
		return workerHooks{
			onMatch: func(int, *Match) bool { n++; return true },
			finish:  func() { total.Add(int64(n)) },
		}
	})
	return int(total.Load())
}
