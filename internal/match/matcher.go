// Package match finds SPARQL matches: subgraph homomorphisms from a query
// graph into an RDF data graph (Section 2.1 of the paper). It powers
// per-site subquery evaluation, fragment construction and cardinality
// statistics. The last two need of an access pattern's matches only the
// triples they use and how many there are: MatchedEdges and Count get
// both for a tree pattern over a compacted snapshot by semi-joins over
// its vertices, producing no match (reduce.go), and enumerate the matches
// of any other pattern — one with a cycle, a predicate variable or a
// self-loop — and of any pattern over a snapshot with a delta.
package match

import (
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
	// VertexFilter, when non-nil, must approve every binding of query
	// vertex qv to data vertex id. Horizontal fragmentation uses this to
	// impose structural simple predicates. CountAll and MatchedEdgesAll
	// call their items' filters concurrently, so a filter there must be
	// safe for concurrent use (pure functions over immutable state, like
	// the minterm filters, qualify).
	VertexFilter func(qv int, id rdf.ID) bool
	// Keep, when non-nil, marks the query vertices whose bindings the
	// caller reads; the others need one witness each. The search then
	// stops at the first complete match below the cut depth — the first
	// depth of its edge order at which every kept vertex and every
	// variable predicate is bound — and backtracks to the cut: each
	// binding of the edges above it yields at most one match. Every match
	// found is a real one, and projected onto the kept vertices the
	// matches are, as a set, those of the full enumeration. A nil Keep, or
	// one that marks every variable vertex, enumerates every match.
	Keep VertexMask
	// Vars, when non-nil, is q.Vars(), which FindBindings would otherwise
	// compute: the columns of the batches it hands out.
	Vars []string
}

// VertexMask is a set of query vertices: vertex v is bit v%64 of word
// v/64.
type VertexMask []uint64

// Has reports whether v is in the set.
func (m VertexMask) Has(v int) bool { return v/64 < len(m) && m[v/64]&(1<<(v%64)) != 0 }

// Add puts v in the set, growing it as needed.
func (m VertexMask) Add(v int) VertexMask {
	for len(m) <= v/64 {
		m = append(m, 0)
	}
	m[v/64] |= 1 << (v % 64)
	return m
}

// Within reports whether every vertex of the set is below n.
func (m VertexMask) Within(n int) bool {
	for i, w := range m {
		if lo := i * 64; lo+64 > n && w>>max(n-lo, 0) != 0 {
			return false
		}
	}
	return true
}

// ForEach enumerates homomorphisms of q in g, invoking fn for each. The
// Match passed to fn is reused between calls; copy what you keep. fn
// returning false stops the enumeration early.
func ForEach(q *sparql.Graph, g *rdf.Snapshot, opts Options, fn func(*Match) bool) {
	if len(q.Edges) == 0 {
		return
	}
	order := edgeOrder(q, g)
	s := searcher{
		q:      q,
		g:      g,
		filter: opts.VertexFilter,
		order:  order,
		m: &Match{
			Vertex:  make([]rdf.ID, len(q.Verts)),
			Triples: make([]rdf.Triple, len(q.Edges)),
		},
		bound: make([]bool, len(q.Verts)),
		cut:   cutDepth(q, order, opts.Keep),
	}
	// Pre-bind constant vertices. A constant g lacks simply has no
	// candidates; rdf.NoID is no constant, and the engine never sends one.
	for i, v := range q.Verts {
		if !v.IsVar() {
			s.m.Vertex[i] = v.Term
			s.bound[i] = true
		}
	}
	s.search(0, fn)
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

// Find collects every match, in enumeration order.
func Find(q *sparql.Graph, g *rdf.Snapshot, opts Options) []Match {
	var out []Match
	ForEach(q, g, opts, func(m *Match) bool {
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
// whoever receives it, and so does handing it back. The batcher holds
// only the batch, not keep, alloc and free: what it hands out escapes, and
// so would they, and with them the batcher itself.
type batcher[E any] struct {
	stride int
	size   int // elements in a full batch
	batch  []E
	last   int // capacity the previous batch reached
}

// add keeps m in the batch and reports whether the batch is full.
func (b *batcher[E]) add(m *Match, keep func([]E, *Match) []E, alloc func(int) []E, free func([]E)) bool {
	if len(b.batch)+b.stride > cap(b.batch) {
		grown := append(alloc(min(max(4*b.stride, 2*cap(b.batch), b.last), b.size)), b.batch...)
		free(b.batch)
		b.batch = grown
	}
	b.batch = keep(b.batch, m)
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
// searcher's reused Match becomes, on arrays from alloc (an empty array
// with room for at least n elements), and fn gets each batch as it fills,
// in enumeration order.
func findBatched[E any](q *sparql.Graph, g *rdf.Snapshot, opts Options, size, stride int, keep func([]E, *Match) []E, alloc func(int) []E, free func([]E), fn func([]E) bool) {
	if size <= 0 {
		size = 256
	}
	b := batcher[E]{stride: stride, size: size * stride}
	ForEach(q, g, opts, func(m *Match) bool {
		return !b.add(m, keep, alloc, free) || fn(b.take())
	})
	if len(b.batch) > 0 {
		fn(b.take())
	}
}

// Count returns the number of matches. A tree pattern's matches over a
// compacted snapshot are counted over its vertices (reduce.go), the
// others' one by one.
func Count(q *sparql.Graph, g *rdf.Snapshot, opts Options) int {
	if len(q.Edges) == 0 {
		return 0
	}
	if r := newReducer(q, g, opts); r != nil {
		defer r.release()
		return r.count()
	}
	n := 0
	ForEach(q, g, opts, func(*Match) bool {
		n++
		return true
	})
	return n
}

// MatchedEdges returns the set of triples of g that some match of q uses:
// the edges of Definition 10's fragment for q, or with opts.VertexFilter
// those of one minterm's (Definition 12). Over a compacted snapshot, a
// tree pattern's set comes from two semi-join passes over its vertices
// (reduce.go), without a match; any other's from enumerating its matches,
// keeping nothing per match, so the cost beyond the search is |E(g)|/64
// words.
func MatchedEdges(q *sparql.Graph, g *rdf.Snapshot, opts Options) *rdf.EdgeSet {
	set := g.NewEdgeSet()
	if len(q.Edges) == 0 {
		return set
	}
	if r := newReducer(q, g, opts); r != nil {
		defer r.release()
		r.matchedEdges(set)
		return set
	}
	ForEach(q, g, opts, edgeMarker(set, len(q.Edges)))
	return set
}

// Item is one pattern of a batch and the options it is matched under.
type Item struct {
	Q    *sparql.Graph
	Opts Options
}

// MatchedEdgesAll returns at i MatchedEdges(items[i].Q, g, items[i].Opts).
// The items run concurrently, one per worker at a time (parallelFor), and
// each result lands at its item's index, so what comes out does not
// depend on how many workers there are. Every VertexFilter must be safe
// for concurrent use.
func MatchedEdgesAll(items []Item, g *rdf.Snapshot) []*rdf.EdgeSet {
	out := make([]*rdf.EdgeSet, len(items))
	parallelFor(len(items), func(i int) { out[i] = MatchedEdges(items[i].Q, g, items[i].Opts) })
	return out
}

// CountAll is MatchedEdgesAll for Count.
func CountAll(items []Item, g *rdf.Snapshot) []int {
	out := make([]int, len(items))
	parallelFor(len(items), func(i int) { out[i] = Count(items[i].Q, g, items[i].Opts) })
	return out
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

type searcher struct {
	q      *sparql.Graph
	g      *rdf.Snapshot
	filter func(qv int, id rdf.ID) bool // Options.VertexFilter
	order  []int
	// m is what the callback is handed, apart from the searcher: handing
	// it a field of the searcher would put the searcher on the heap.
	m     *Match
	bound []bool
	// cut is the depth below which one match per binding of the edges
	// above it suffices (Options.Keep); len(order) when there is none.
	// witnessed records that the subtree under the cut has yielded it.
	cut       int
	done      bool
	witnessed bool
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
// search order, by each of its candidates in turn.
func (s *searcher) search(depth int, fn func(*Match) bool) {
	ei := s.order[depth]
	e := s.q.Edges[ei]
	var cur candCursor
	s.initCursor(&cur, e)
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
			s.search(depth+1, fn)
		} else {
			s.emit(fn)
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
		if s.witnessed && depth >= s.cut {
			s.witnessed = depth > s.cut
			return
		}
	}
}

// cutDepth returns the number of leading edges of order that bind every
// vertex keep marks and every variable predicate (Options.Keep), or
// len(order) when keep is nil. A keep that marks nothing, over a pattern
// without a variable predicate, cuts at 0: one match stands for them all.
// Once every variable is bound, an edge has one candidate at most, so a
// keep that marks every variable vertex still finds every match.
func cutDepth(q *sparql.Graph, order []int, keep VertexMask) int {
	if keep == nil {
		return len(order)
	}
	cut := 0
	for v, vert := range q.Verts {
		if !vert.IsVar() || !keep.Has(v) {
			continue
		}
		for d, ei := range order {
			if e := q.Edges[ei]; e.From == v || e.To == v {
				cut = max(cut, d+1)
				break
			}
		}
	}
	for d, ei := range order {
		if q.Edges[ei].IsPredVar() {
			cut = max(cut, d+1)
		}
	}
	return cut
}

// emit hands the match, complete, to the callback.
func (s *searcher) emit(fn func(*Match) bool) {
	s.witnessed = true
	if !fn(s.m) {
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

// initCursor puts c, a zero cursor, at the start of what serves the
// candidates of edge e under the current bindings, cheapest first: a bound
// endpoint's run — of a fully-ground edge, no more than the entry that is
// the edge; else the part labelled with the edge's predicate when that is
// constant, so the graph serves a contiguous sub-run — a constant
// predicate's run, the snapshot's triple list (which already folds the
// delta in).
func (s *searcher) initCursor(c *candCursor, e sparql.Edge) {
	g, from, to := s.g, rdf.NoID, rdf.NoID
	if s.bound[e.From] {
		from = s.m.Vertex[e.From]
	}
	if s.bound[e.To] {
		to = s.m.Vertex[e.To]
	}
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
	if s.filter != nil && !s.filter(qv, id) {
		return false, false
	}
	s.bound[qv] = true
	s.m.Vertex[qv] = id
	return true, true
}

// unbind reverses a successful bind that reported undo=true.
func (s *searcher) unbind(qv int) { s.bound[qv] = false }

// bindPred records a variable-predicate binding, reporting whether the
// caller must delete it on backtrack. It makes the map on first use.
func (s *searcher) bindPred(e sparql.Edge, p rdf.ID) bool {
	if !e.IsPredVar() {
		return false
	}
	if _, ok := s.m.Pred[e.PredVar]; ok {
		return false
	}
	if s.m.Pred == nil {
		s.m.Pred = make(map[string]rdf.ID)
	}
	s.m.Pred[e.PredVar] = p
	return true
}
