// Package match finds SPARQL matches: subgraph homomorphisms from a query
// graph into an RDF data graph (Section 2.1 of the paper). It powers
// fragment construction (all matches of an access pattern), per-site
// subquery evaluation and cardinality statistics.
package match

import (
	"sync"
	"sync/atomic"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Match is one homomorphism from the query graph into the data graph.
type Match struct {
	// Vertex maps query vertex index -> data vertex ID.
	Vertex []rdf.ID
	// Pred maps variable predicate names -> data property ID.
	Pred map[string]rdf.ID
	// Triples holds the matched data triple per query edge, aligned to
	// the query's edge order.
	Triples []rdf.Triple
}

// Options tunes a matching run.
type Options struct {
	// Limit stops the search after this many matches; 0 means unlimited.
	Limit int
	// VertexFilter, when non-nil, must approve every binding of query
	// vertex qv to data vertex id. Horizontal fragmentation uses this to
	// impose structural simple predicates. When the search runs in
	// parallel the filter is called concurrently from several workers,
	// so it must be safe for concurrent use (pure functions over
	// immutable state, like the minterm filters, qualify).
	VertexFilter func(qv int, id rdf.ID) bool
	// Parallelism caps the number of workers the morsel-driven parallel
	// search may use: the root edge's candidate run is split into
	// morsels and fanned out to a worker pool, each worker owning a
	// private searcher. 0 means GOMAXPROCS; 1 (or a root run too small
	// to split) forces the sequential path. Find, Count, MatchedEdges,
	// FindBatches and FindBindings honour it; ForEach is always
	// sequential because its callback contract (one reused Match) is
	// inherently serial.
	// Limit > 0 also forces the sequential path, preserving the exact
	// "first Limit matches in enumeration order" semantics. A parallel
	// FindBatches or FindBindings streams batches as workers fill them, in
	// no particular order; Find's parallel output is exactly the
	// sequential output.
	Parallelism int
}

// ForEach enumerates homomorphisms of q in g, invoking fn for each. The
// Match passed to fn is reused between calls; copy what you keep. fn
// returning false stops the enumeration early.
func ForEach(q *sparql.Graph, g *rdf.Snapshot, opts Options, fn func(*Match) bool) {
	if len(q.Edges) == 0 {
		return
	}
	forEachOrdered(q, g, opts, edgeOrder(q, g), fn)
}

// forEachOrdered is ForEach with a precomputed edge order, so entry
// points that already ran edgeOrder for the parallel planner don't pay
// for it twice when the plan declines.
func forEachOrdered(q *sparql.Graph, g *rdf.Snapshot, opts Options, order []int, fn func(*Match) bool) {
	s := &searcher{
		q:     q,
		g:     g,
		opts:  opts,
		order: order,
		m: Match{
			Vertex:  make([]rdf.ID, len(q.Verts)),
			Pred:    make(map[string]rdf.ID),
			Triples: make([]rdf.Triple, len(q.Edges)),
		},
		bound: make([]bool, len(q.Verts)),
		fn:    fn,
	}
	// Pre-bind constant vertices; bail out if a constant is absent from g.
	for i, v := range q.Verts {
		if !v.IsVar() {
			s.m.Vertex[i] = v.Term
			s.bound[i] = true
		}
	}
	s.search(0, nil)
}

// clone deep-copies a reused Match for retention beyond the ForEach
// callback.
func (m *Match) clone() Match {
	c := Match{
		Vertex:  append([]rdf.ID(nil), m.Vertex...),
		Triples: append([]rdf.Triple(nil), m.Triples...),
	}
	if len(m.Pred) > 0 {
		c.Pred = make(map[string]rdf.ID, len(m.Pred))
		for k, v := range m.Pred {
			c.Pred[k] = v
		}
	}
	return c
}

// Find collects up to opts.Limit matches (all if 0). Its output is
// deterministic regardless of opts.Parallelism: the parallel path merges
// per-morsel results in morsel order, reproducing the sequential
// enumeration order exactly.
func Find(q *sparql.Graph, g *rdf.Snapshot, opts Options) []Match {
	if len(q.Edges) == 0 {
		return nil
	}
	order := edgeOrder(q, g)
	if r := planParallel(q, g, opts, order); r != nil {
		return r.find()
	}
	var out []Match
	forEachOrdered(q, g, opts, order, func(m *Match) bool {
		out = append(out, m.clone())
		return true
	})
	return out
}

// FindBatches enumerates matches in batches of up to size matches each,
// invoking fn as soon as a batch fills (the last batch may be smaller).
// The batch and the Matches in it — deep copies — belong to fn. fn
// returning false stops the enumeration early. Query evaluation streams
// through FindBindings, which runs the same search without keeping a
// Match; FindBatches remains for callers that want whole matches, matched
// triples included.
func FindBatches(q *sparql.Graph, g *rdf.Snapshot, opts Options, size int, fn func([]Match) bool) {
	findBatched(q, g, opts, size, 1, func(batch []Match, m *Match) []Match { return append(batch, m.clone()) }, onHeap[Match], func([]Match) {}, fn)
}

// onHeap allocates the arrays of batches no free list keeps.
func onHeap[E any](n int) []E { return make([]E, 0, n) }

// batcher groups what keep appends for each match — stride elements, one
// Match or one row of IDs — into batches of up to size matches. A batch's
// array grows geometrically from 4 matches to size — most fragment
// evaluations fill a handful of slots, and a full-size array per
// evaluation was once the largest single cost of a selective query; free
// gets back each array a batch outgrew. A batch, once taken, belongs to
// whoever receives it, and so does handing it back.
type batcher[E any] struct {
	keep   func([]E, *Match) []E
	alloc  func(n int) []E // an empty array with room for at least n elements
	free   func([]E)
	stride int
	size   int // elements in a full batch
	batch  []E
	last   int // capacity the previous batch reached
}

func newBatcher[E any](keep func([]E, *Match) []E, alloc func(int) []E, free func([]E), stride, size int) batcher[E] {
	return batcher[E]{keep: keep, alloc: alloc, free: free, stride: stride, size: size * stride}
}

// add keeps m in the batch and reports whether the batch is full.
func (b *batcher[E]) add(m *Match) bool {
	if len(b.batch)+b.stride > cap(b.batch) {
		grown := append(b.alloc(min(max(4*b.stride, 2*cap(b.batch), b.last), b.size)), b.batch...)
		b.free(b.batch)
		b.batch = grown
	}
	b.batch = b.keep(b.batch, m)
	return len(b.batch) == b.size
}

// take hands out the batch filled so far and starts the next.
func (b *batcher[E]) take() []E {
	out := b.batch
	b.batch, b.last = nil, cap(out)
	return out
}

// findBatched is the search-and-batch skeleton behind FindBatches and
// FindBindings: keep appends to a batch the stride elements that the
// searcher's reused Match becomes (it must grow the array when it is full;
// it is called from every enumerating goroutine), on arrays from alloc. A
// parallel run delivers batches to fn one at a time, as each worker fills
// its own, in claiming order.
func findBatched[E any](q *sparql.Graph, g *rdf.Snapshot, opts Options, size, stride int, keep func([]E, *Match) []E, alloc func(int) []E, free func([]E), fn func([]E) bool) {
	if size <= 0 {
		size = 256
	}
	if len(q.Edges) == 0 {
		return
	}
	order := edgeOrder(q, g)
	r := planParallel(q, g, opts, order)
	switch {
	case r == nil:
		b := newBatcher(keep, alloc, free, stride, size)
		forEachOrdered(q, g, opts, order, func(m *Match) bool {
			return !b.add(m) || fn(b.take())
		})
		if len(b.batch) > 0 {
			fn(b.take())
		}
	default:
		var (
			mu      sync.Mutex
			stopped bool
		)
		deliver := func(batch []E) bool {
			mu.Lock()
			defer mu.Unlock()
			stopped = stopped || !fn(batch)
			return !stopped
		}
		r.run(func(int) workerHooks {
			b := newBatcher(keep, alloc, free, stride, size)
			return workerHooks{
				onMatch: func(_ int, m *Match) bool {
					return !b.add(m) || deliver(b.take())
				},
				finish: func() {
					if len(b.batch) > 0 && !r.stop.Load() {
						deliver(b.take())
					}
				},
			}
		})
	}
}

// Count returns the number of matches, stopping at opts.Limit if set.
// Without a limit it runs through the parallel path: each worker counts
// its morsels locally (no per-match allocation) and the tallies are
// summed.
func Count(q *sparql.Graph, g *rdf.Snapshot, opts Options) int {
	if len(q.Edges) == 0 {
		return 0
	}
	order := edgeOrder(q, g)
	if r := planParallel(q, g, opts, order); r != nil {
		return r.count()
	}
	n := 0
	forEachOrdered(q, g, opts, order, func(*Match) bool {
		n++
		return true
	})
	return n
}

// MatchedEdges returns the set of triples of g that some match of q uses:
// the edges of Definition 10's fragment for q, or with opts.VertexFilter
// those of one minterm's (Definition 12). Nothing is kept per match — each
// enumerating goroutine sets bits in a set of its own, and the sets are
// ORed — so the cost beyond the search is |E(g)|/64 words per worker.
func MatchedEdges(q *sparql.Graph, g *rdf.Snapshot, opts Options) *rdf.EdgeSet {
	set := g.NewEdgeSet()
	if len(q.Edges) == 0 {
		return set
	}
	order := edgeOrder(q, g)
	r := planParallel(q, g, opts, order)
	if r == nil {
		forEachOrdered(q, g, opts, order, edgeMarker(set, len(q.Edges)))
		return set
	}
	var mu sync.Mutex
	r.run(func(int) workerHooks {
		own := g.NewEdgeSet()
		mark := edgeMarker(own, len(q.Edges))
		return workerHooks{
			onMatch: func(_ int, m *Match) bool { return mark(m) },
			finish: func() {
				mu.Lock()
				set.Union(own)
				mu.Unlock()
			},
		}
	})
	return set
}

// edgeMarker returns the per-match step of MatchedEdges. Consecutive
// matches share the triples of the edges searched first, so an edge whose
// triple is the previous match's is not looked up again.
func edgeMarker(set *rdf.EdgeSet, edges int) func(*Match) bool {
	last := make([]rdf.Triple, edges)
	for i := range last {
		last[i] = rdf.Triple{S: rdf.NoID, P: rdf.NoID, O: rdf.NoID}
	}
	return func(m *Match) bool {
		for i, t := range m.Triples {
			if t != last[i] {
				last[i] = t
				set.Add(t)
			}
		}
		return true
	}
}

// MatchedGraph returns the subgraph of g induced by all matches of q, as
// a frozen graph of its own: MatchedEdges' triples in (S, P, O) order.
func MatchedGraph(q *sparql.Graph, g *rdf.Snapshot, opts Options) *rdf.Graph {
	return rdf.NewFrozen(g.Dict(), MatchedEdges(q, g, opts).Triples())
}

type searcher struct {
	q     *sparql.Graph
	g     *rdf.Snapshot
	opts  Options
	order []int
	m     Match
	bound []bool
	fn    func(*Match) bool
	found int
	done  bool
	// stop, when non-nil, is the parallel run's shared kill switch: any
	// worker tripping it (callback returned false) halts every other
	// worker at its next search step.
	stop *atomic.Bool
}

// edgeOrder sorts query edges so that (a) the search stays connected and
// (b) the most selective edge (fewest candidate triples) comes first.
// Constant-anchored edges are costed by the exact degree of the constant
// vertex — restricted to the edge's predicate when that is constant too
// (an O(log deg) lookup) — instead of a flat guess.
func edgeOrder(q *sparql.Graph, g *rdf.Snapshot) []int {
	n := len(q.Edges)
	selectivity := make([]int, n)
	for i, e := range q.Edges {
		from, to := q.Verts[e.From], q.Verts[e.To]
		switch {
		case !from.IsVar() && !to.IsVar():
			selectivity[i] = 0 // membership check: cheapest possible
		case !from.IsVar():
			if e.IsPredVar() {
				selectivity[i] = g.OutDegree(from.Term) + 1
			} else {
				selectivity[i] = g.OutDegreeP(from.Term, e.Pred) + 1
			}
		case !to.IsVar():
			if e.IsPredVar() {
				selectivity[i] = g.InDegree(to.Term) + 1
			} else {
				selectivity[i] = g.InDegreeP(to.Term, e.Pred) + 1
			}
		case e.IsPredVar():
			selectivity[i] = g.NumTriples() + 1
		default:
			selectivity[i] = g.PredicateCount(e.Pred) + 1
		}
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	covered := make(map[int]bool)
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			e := q.Edges[i]
			connected := len(order) == 0 || covered[e.From] || covered[e.To]
			if !connected {
				continue
			}
			if best == -1 || selectivity[i] < selectivity[best] {
				best = i
			}
		}
		if best == -1 { // disconnected query: start cheapest remaining
			for i := 0; i < n; i++ {
				if !used[i] && (best == -1 || selectivity[i] < selectivity[best]) {
					best = i
				}
			}
		}
		used[best] = true
		order = append(order, best)
		covered[q.Edges[best].From] = true
		covered[q.Edges[best].To] = true
	}
	return order
}

// search extends the current partial match over the edge at depth of the
// search order, by each of its candidates in turn. A parallel worker hands
// in root, the cursor on its morsel's share of the root edge's candidates;
// every other call starts the cursor itself.
func (s *searcher) search(depth int, root *candCursor) {
	if s.stop != nil && s.stop.Load() {
		s.done = true
		return
	}
	ei := s.order[depth]
	e := s.q.Edges[ei]
	var own candCursor
	cur := root
	if cur == nil {
		cur = &own
		s.initCursor(cur, e)
	}
	// The loop steps the cursor's run itself and expands the candidate
	// inline: a call per candidate for either — a next method on the
	// cursor, an expand method on the searcher — costs the candidate-scan
	// microbenchmarks a quarter or more.
	for !s.done {
		var t rdf.Triple
		if cur.dir == curList {
			if len(cur.list) == 0 {
				return
			}
			t, cur.list = cur.list[0], cur.list[1:]
		} else {
			p, ok := cur.run.Next()
			if !ok {
				return
			}
			if t, ok = cur.triple(p); !ok {
				continue
			}
		}
		if !s.predOK(e, t.P) {
			continue
		}
		undoS, ok := s.bind(e.From, t.S)
		if !ok {
			continue
		}
		undoO, ok := s.bind(e.To, t.O)
		if !ok {
			if undoS {
				s.unbind(e.From)
			}
			continue
		}
		undoP := s.bindPred(e, t.P)
		s.m.Triples[ei] = t
		if depth+1 < len(s.order) {
			s.search(depth+1, nil)
		} else {
			s.emit()
		}
		if undoP {
			delete(s.m.Pred, e.PredVar)
		}
		if undoO {
			s.unbind(e.To)
		}
		if undoS {
			s.unbind(e.From)
		}
	}
}

// emit hands the match, complete, to the callback.
func (s *searcher) emit() {
	s.found++
	if !s.fn(&s.m) || s.opts.Limit > 0 && s.found >= s.opts.Limit {
		s.done = true
	}
}

// candCursor enumerates the candidate data triples of one query edge
// without materializing them. An index run serves them unless nothing of
// the edge is bound: which entries of the run are visible, and in what
// order, is rdf's business — the cursor holds an rdf.Cursor over the run
// and rebuilds each Triple from the run's pair and the ID the run is kept
// under. The order is that of a freshly rebuilt CSR, the property the
// differential harness pins. The cursor lives on the searcher's stack:
// candidate enumeration performs zero heap allocations, with or without a
// delta.
type candCursor struct {
	run   rdf.Cursor
	dir   uint8        // what the run is kept under (curOut, curIn, curPred), or curList
	fixed rdf.ID       // that subject, object or predicate
	other rdf.ID       // curOut: required far endpoint; NoID = unconstrained
	list  []rdf.Triple // curList: the candidates still to go
}

const (
	curOut  = iota // the (P, O) run of a bound subject
	curIn          // the (P, S) run of a bound object
	curPred        // the (S, O) run of a constant predicate
	curList        // no run: every triple of the snapshot
)

// pick puts c, a zero cursor, at the start of what serves the candidates
// of edge e when its endpoints are bound to from and to (rdf.NoID where
// not), cheapest first: a bound endpoint's run — of a fully-ground edge,
// no more than the entry that is the edge; else the part labelled with
// the edge's predicate when that is constant, so the graph serves a
// contiguous sub-run — a constant predicate's run, the snapshot's triple
// list (which already folds the delta in). The sequential search calls it
// with the current bindings; the parallel search with the constants, to
// deal the root's candidates out in morsels.
func (c *candCursor) pick(g *rdf.Snapshot, e sparql.Edge, from, to rdf.ID) {
	switch {
	case from != rdf.NoID && to != rdf.NoID && !e.IsPredVar():
		c.dir, c.fixed, c.other = curOut, from, rdf.NoID
		c.run.Out(g, from).Only(rdf.Pair{A: e.Pred, B: to})
		return
	case from != rdf.NoID:
		c.dir, c.fixed, c.other = curOut, from, to
		c.run.Out(g, from)
	case to != rdf.NoID:
		c.dir, c.fixed = curIn, to
		c.run.In(g, to)
	case !e.IsPredVar():
		c.dir, c.fixed = curPred, e.Pred
		c.run.Pred(g, e.Pred)
		return
	default:
		c.dir, c.list = curList, g.Triples()
		return
	}
	if !e.IsPredVar() {
		c.run.Narrow(e.Pred)
	}
}

// initCursor starts c, a zero cursor, on the candidates of edge e under
// the current bindings.
func (s *searcher) initCursor(c *candCursor, e sparql.Edge) {
	from, to := rdf.NoID, rdf.NoID
	if s.bound[e.From] {
		from = s.m.Vertex[e.From]
	}
	if s.bound[e.To] {
		to = s.m.Vertex[e.To]
	}
	c.pick(s.g, e, from, to)
}

// triple rebuilds the candidate from an entry of c's run and the ID the
// run is kept under; false if the far endpoint rules the entry out.
func (c *candCursor) triple(e rdf.Pair) (rdf.Triple, bool) {
	switch c.dir {
	case curOut:
		return rdf.Triple{S: c.fixed, P: e.A, O: e.B}, c.other == rdf.NoID || e.B == c.other
	case curIn:
		return rdf.Triple{S: e.B, P: e.A, O: c.fixed}, true
	}
	return rdf.Triple{S: e.A, P: c.fixed, O: e.B}, true
}

func (s *searcher) predOK(e sparql.Edge, p rdf.ID) bool {
	if !e.IsPredVar() {
		return e.Pred == p
	}
	if cur, ok := s.m.Pred[e.PredVar]; ok {
		return cur == p
	}
	return true
}

// bind maps query vertex qv to data vertex id (homomorphism: several query
// variables may map to the same data vertex, but one variable maps to one
// vertex). It reports (undo, ok): ok=false rejects the candidate; undo
// tells the caller whether it must unbind qv after exploring the subtree.
// Flags instead of undo closures keep the inner loop allocation-free.
func (s *searcher) bind(qv int, id rdf.ID) (undo, ok bool) {
	if s.bound[qv] {
		return false, s.m.Vertex[qv] == id
	}
	if s.opts.VertexFilter != nil && !s.opts.VertexFilter(qv, id) {
		return false, false
	}
	s.bound[qv] = true
	s.m.Vertex[qv] = id
	return true, true
}

// unbind reverses a successful bind that reported undo=true.
func (s *searcher) unbind(qv int) { s.bound[qv] = false }

// bindPred records a variable-predicate binding, reporting whether the
// caller must delete it on backtrack.
func (s *searcher) bindPred(e sparql.Edge, p rdf.ID) bool {
	if !e.IsPredVar() {
		return false
	}
	if _, ok := s.m.Pred[e.PredVar]; ok {
		return false
	}
	s.m.Pred[e.PredVar] = p
	return true
}
