package match

// Fragments by semi-joins. A fragment is the set of triples some match of
// its pattern uses (Definition 10), and selection needs that set's size
// for every mined pattern; the matches themselves are never kept. When
// the pattern is a tree — connected, one edge fewer than vertices, every
// predicate constant, no edge from a vertex to itself — the set and the
// number of matches both follow from the pattern's vertices alone, by the
// full reducer of acyclic joins (Yannakakis, VLDB 1981), and no match
// is produced.
//
// Each pattern vertex gets a set of term IDs. Rooted at vertex 0, a pass
// from the leaves up leaves in a vertex's set the data vertices at which
// a match of its subtree can be rooted: those with an edge to a member of
// each child's set, passing the vertex filter, or the constant itself. A
// pass from the root down then cuts each child's set to what an edge
// reaches from a member of its parent's. A vertex's set is then exactly
// what it binds over all matches, and since the pattern splits at every
// edge into two parts that share nothing else, a triple joining members
// of its edge's two end sets is used by a match: a fragment is those
// triples, marked by subject through rdf.EdgeSet.AddOut. The number of
// matches is a sum of products over the same tree, counted per member.
//
// The pass down marks triples by their place in the CSR runs, and both
// passes read each edge's predicate run as the CSR's own slice, so the
// reducer needs a compacted snapshot; the fragmenters read graphs built
// frozen. A snapshot with a delta, a pattern with a cycle, a predicate
// variable or a self-loop, and a search with a Limit or a Keep enumerate
// instead. One reduction runs on one goroutine; the pipeline's many run
// side by side through CountAll and MatchedEdgesAll (parallel.go).

import (
	"math/bits"
	"sync"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// idSet is a set of term IDs: ID x is bit x%64 of word x/64. It grows by
// words as members are added.
type idSet []uint64

func (s idSet) has(x rdf.ID) bool {
	w := int(x >> 6)
	return w < len(s) && s[w]&(1<<(x&63)) != 0
}

func (s *idSet) add(x rdf.ID) {
	for int(x>>6) >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[x>>6] |= 1 << (x & 63)
}

func (s idSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// rank returns how many members of s are below x.
func (s idSet) rank(prefix []uint32, x rdf.ID) int {
	return int(prefix[x>>6]) + bits.OnesCount64(s[x>>6]&(1<<(x&63)-1))
}

// reducer is one reduction of a tree pattern. Its slices outlive the call
// in a pool, so that the pipeline's hundreds of patterns reuse one set of
// bitmaps and count arrays.
type reducer struct {
	q      *sparql.Graph
	g      *rdf.Snapshot
	filter func(qv int, id rdf.ID) bool // Options.VertexFilter

	order  []int // the pattern's vertices from vertex 0, parents before children
	parent []int // parent[v]: the vertex above v; -1 at the root
	up     []int // up[v]: the edge joining v to its parent
	sets   []idSet
	spare  idSet

	prefix [][]uint32 // per vertex, the members of its set below each word
	counts []int      // per member of each set, the matches of its subtree rooted there
	acc    []int
}

var reducers = sync.Pool{New: func() any { return new(reducer) }}

// newReducer returns a reducer for q over g, or nil if the search opts
// asks for must enumerate.
func newReducer(q *sparql.Graph, g *rdf.Snapshot, opts Options) *reducer {
	n := len(q.Verts)
	if opts.Limit > 0 || opts.Keep != nil || len(q.Edges) != n-1 || !g.Compacted() {
		return nil
	}
	for _, e := range q.Edges {
		if e.IsPredVar() || e.From == e.To {
			return nil
		}
	}
	r := reducers.Get().(*reducer)
	r.q, r.g, r.filter = q, g, opts.VertexFilter
	r.order = append(r.order[:0], 0)
	r.parent = resize(r.parent, n)
	r.up = resize(r.up, n)
	for len(r.sets) < n {
		r.sets = append(r.sets, nil)
	}
	for v := range r.parent {
		r.parent[v] = -1
	}
	for i := 0; i < len(r.order); i++ {
		v := r.order[i]
		for ei, e := range q.Edges {
			w := e.To
			if e.To == v {
				w = e.From
			} else if e.From != v {
				continue
			}
			if w != 0 && r.parent[w] < 0 {
				r.parent[w], r.up[w] = v, ei
				r.order = append(r.order, w)
			}
		}
	}
	if len(r.order) != n { // disconnected, so n-1 edges hold a cycle
		r.release()
		return nil
	}
	return r
}

func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// release hands r back to the pool.
func (r *reducer) release() {
	r.q, r.g, r.filter = nil, nil, nil
	reducers.Put(r)
}

// pairs returns the triples of the edge joining child c to its parent, the
// predicate's CSR run read as a slice (the snapshot is compacted), and
// whether the parent is their subject: a pair's A is the subject and B
// the object.
func (r *reducer) pairs(c int) ([]rdf.Pair, bool) {
	e := r.q.Edges[r.up[c]]
	return r.g.PredRun(e.Pred), e.From == r.parent[c]
}

// orient returns the parent's and the child's end of a pair.
func orient(p rdf.Pair, down bool) (x, y rdf.ID) {
	if down {
		return p.A, p.B
	}
	return p.B, p.A
}

// reduceUp is the pass from the leaves up. It reports false, and stops,
// when a set comes out empty: the pattern has no match. A leaf starts
// from the ends of its edge that it binds; every vertex then keeps only
// its constant, or what passes the vertex filter.
func (r *reducer) reduceUp() bool {
	for i := len(r.order) - 1; i >= 0; i-- {
		v := r.order[i]
		set := r.sets[v][:0]
		first := true
		for _, c := range r.order[i+1:] {
			if r.parent[c] != v {
				continue
			}
			run, down := r.pairs(c)
			below, out := r.sets[c], r.spare[:0]
			for _, p := range run {
				if x, y := orient(p, down); below.has(y) && (first || set.has(x)) {
					out.add(x)
				}
			}
			r.spare, set = set, out
			first = false
		}
		if first {
			run, down := r.pairs(v)
			for _, p := range run {
				_, y := orient(p, down)
				set.add(y)
			}
		}
		if vert := r.q.Verts[v]; !vert.IsVar() {
			keep := set.has(vert.Term)
			set = set[:0]
			if keep {
				set.add(vert.Term)
			}
		} else if r.filter != nil {
			for w, word := range set {
				for b := word; b != 0; b &= b - 1 {
					if x := rdf.ID(w<<6 + bits.TrailingZeros64(b)); !r.filter(v, x) {
						set[w] &^= 1 << (x & 63)
					}
				}
			}
		}
		if r.sets[v] = set; set.empty() {
			return false
		}
	}
	return true
}

// matchedEdges adds to set every triple a match of the pattern uses. Once
// the pass up is done, the pass down goes edge by edge from the root:
// where a parent's set is final, a triple of the edge to child c is used
// by a match exactly when its parent's end is in that set and its child's
// end in c's, and the child's ends of those triples are c's final set. So
// the pass walks the subjects' runs, marking as it goes.
func (r *reducer) matchedEdges(set *rdf.EdgeSet) {
	if !r.reduceUp() {
		return
	}
	var above, below, out idSet
	var sub rdf.ID
	object := func(o rdf.ID) bool { // the parent is the subject
		if !below.has(o) {
			return false
		}
		out.add(o)
		return true
	}
	subject := func(o rdf.ID) bool { // the child is
		if !above.has(o) {
			return false
		}
		out.add(sub)
		return true
	}
	for _, c := range r.order[1:] {
		v, e := r.parent[c], r.q.Edges[r.up[c]]
		above, below, out = r.sets[v], r.sets[c], r.spare[:0]
		keep, subs := object, above
		if e.From != v {
			keep, subs = subject, below
		}
		for w, word := range subs {
			for b := word; b != 0; b &= b - 1 {
				sub = rdf.ID(w<<6 + bits.TrailingZeros64(b))
				set.AddOut(sub, e.Pred, keep)
			}
		}
		r.spare, r.sets[c] = r.sets[c], out
	}
}

// count returns the number of matches: after the pass up, the matches of
// a vertex's subtree rooted at a member of its set are the product over
// its children of the matches rooted at the members its edges reach.
func (r *reducer) count() int {
	if !r.reduceUp() {
		return 0
	}
	n := len(r.q.Verts)
	r.prefix = resize(r.prefix, n)
	offset, widest := make([]int, n+1), 0
	for v := 0; v < n; v++ {
		size := 0
		r.prefix[v] = resize(r.prefix[v], len(r.sets[v]))
		for w, word := range r.sets[v] {
			r.prefix[v][w] = uint32(size)
			size += bits.OnesCount64(word)
		}
		offset[v+1] = offset[v] + size
		widest = max(widest, size)
	}
	r.counts = resize(r.counts, offset[n])
	r.acc = resize(r.acc, widest)
	for i := len(r.order) - 1; i >= 0; i-- {
		v := r.order[i]
		own, set := r.counts[offset[v]:offset[v+1]], r.sets[v]
		for k := range own {
			own[k] = 1
		}
		for _, c := range r.order[i+1:] {
			if r.parent[c] != v {
				continue
			}
			acc := r.acc[:len(own)]
			clear(acc)
			below, counts := r.sets[c], r.counts[offset[c]:offset[c+1]]
			run, down := r.pairs(c)
			for _, p := range run {
				x, y := orient(p, down)
				if !set.has(x) || !below.has(y) {
					continue
				}
				acc[set.rank(r.prefix[v], x)] += counts[below.rank(r.prefix[c], y)]
			}
			for k := range own {
				own[k] *= acc[k]
			}
		}
	}
	total := 0
	for _, m := range r.counts[offset[0]:offset[1]] {
		total += m
	}
	return total
}
