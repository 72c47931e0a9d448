package rdf

import (
	"slices"
	"sync"
	"sync/atomic"
)

// generation is one immutable CSR build plus the mutable delta overlay
// that accumulates on top of it. Compact builds the next generation off
// to the side and swaps the graph's generation pointer atomically;
// snapshots pinned to the old generation keep reading it untouched until
// they drain (Go's GC reclaims the arenas once the last reference
// drops; the pin count is the observability hook that tells the graph
// when to forget a retired generation).
type generation struct {
	id    uint64
	csr   *csrIndex
	base  int // triples compiled into csr (the order-prefix length)
	delta *genDelta
	pins  atomic.Int64 // snapshots currently pinning this generation

	// ord republishes the graph's order slice header after every Add of
	// this generation. It lives on the generation — not the graph —
	// because Compact rebuilds the order list (folding tombstones away),
	// and a snapshot must pair the generation it pinned with the order
	// array that generation's base/seq space indexes into.
	ord atomic.Pointer[[]Triple]
}

// Snapshot is an immutable, lock-free read view of a graph: it pins a
// (CSR generation, delta length) pair at acquisition, so concurrent
// writer appends and even compactions are invisible to it. It is the
// only type the read path (match, exec, cluster, serve) consumes: what it
// sees of an index run is a Run (Run.Out, In, Pred), and the degrees and
// the membership test are questions put to one. A Snapshot is safe for
// concurrent use by many goroutines and stays valid indefinitely; Close
// releases its pin on the generation (needed only for the
// generation-lifecycle gauges — an unclosed snapshot leaks a gauge
// increment, not memory).
type Snapshot struct {
	g      *Graph
	gen    *generation // never nil
	n      uint32      // delta visibility bound: ops with a sequence number < n are visible
	order  []Triple    // pinned insertion-order prefix
	pinned bool
	closed atomic.Bool

	// ops is the visible op window when it contains deletes; nil for
	// insert-only windows. With ops set, the order prefix may carry stale
	// occurrences; Triples/NumTriples materialize the live list lazily
	// (once) instead of slicing.
	ops     []deltaOp
	matOnce sync.Once
	mat     []Triple
}

// Snapshot pins the graph's current read view. The returned snapshot is
// lock-free and immune to concurrent Add/Compact; Close it when done so
// the generation gauges drain. Snapshots taken from a ViewSource view
// are shared and must not be Closed individually (the view handle owns
// the pins).
func (g *Graph) Snapshot() *Snapshot {
	s := g.snapshotAt()
	s.pinned = true
	s.gen.pins.Add(1)
	return s
}

// snapshotAt captures the current (generation, delta length) cut without
// pinning — the building block for Snapshot and for ViewSource views,
// which do their own pin accounting per acquired handle.
func (g *Graph) snapshotAt() *Snapshot {
	gen := g.gen.Load()
	// Load n before the order header: the writer publishes the order
	// first and increments n last, so the header seen here covers at
	// least the window's adds. The dels hint is loaded after n: reading
	// 0 proves no tombstone has seq < n, so the window is insert-only
	// and every op extended the order prefix.
	n := uint32(gen.delta.n.Load())
	ord := *gen.ord.Load()
	if n == 0 || gen.delta.dels.Load() == 0 {
		return &Snapshot{g: g, gen: gen, n: n, order: ord[:gen.base+int(n)]}
	}
	ops := (*gen.delta.opsHdr.Load())[:n]
	adds := int(ops[n-1].Adds)
	s := &Snapshot{g: g, gen: gen, n: n, order: ord[:gen.base+adds]}
	if int(n) > adds { // the window itself contains deletes
		s.ops = ops
	}
	return s
}

// Close releases the snapshot's generation pin. Idempotent; a nil or
// unpinned (view-owned) snapshot is a no-op.
func (s *Snapshot) Close() {
	if s == nil || !s.pinned || s.closed.Swap(true) {
		return
	}
	s.gen.pins.Add(-1)
	s.g.pruneRetired()
}

// Dict returns the shared dictionary of the underlying graph.
func (s *Snapshot) Dict() *Dict { return s.g.Dict }

// Graph returns the graph this snapshot was taken from. The graph's
// writer-side API (Add, Compact) is NOT safe to call from readers; this
// exists for identity checks and dictionary access.
func (s *Snapshot) Graph() *Graph { return s.g }

// Generation returns the pinned CSR generation's id.
func (s *Snapshot) Generation() uint64 { return s.gen.id }

// NumTriples returns the number of triples visible in this snapshot.
func (s *Snapshot) NumTriples() int {
	if s.ops == nil {
		return len(s.order)
	}
	return len(s.materialize())
}

// Triples returns the visible triples in insertion order (a triple
// re-inserted after a delete counts from its latest insertion). The
// slice is owned by the store and must not be mutated.
func (s *Snapshot) Triples() []Triple {
	if s.ops == nil {
		return s.order
	}
	return s.materialize()
}

// materialize folds the snapshot's op window over its order prefix into
// the live triple list, once, caching the result. Last-op-wins per
// triple; a live triple keeps its latest insertion position, matching
// what a rebuild from scratch would produce.
func (s *Snapshot) materialize() []Triple {
	s.matOnce.Do(func() {
		state := make(map[Triple]bool, len(s.ops))
		for _, op := range s.ops {
			state[op.T] = !op.Del
		}
		out := make([]Triple, 0, len(s.order))
		var emitted map[Triple]struct{}
		for i := len(s.order) - 1; i >= 0; i-- {
			t := s.order[i]
			if live, touched := state[t]; touched {
				if !live {
					continue
				}
				if emitted == nil {
					emitted = make(map[Triple]struct{}, len(state))
				}
				if _, dup := emitted[t]; dup {
					continue
				}
				emitted[t] = struct{}{}
			}
			out = append(out, t)
		}
		slices.Reverse(out)
		s.mat = out
	})
	return s.mat
}

// Has reports whether the triple is visible in this snapshot.
func (s *Snapshot) Has(t Triple) bool { return new(Run).Out(s, t.S).Has(Pair{t.P, t.O}) }

// Ordinal returns t's position in the (S, P, O) order of the pinned CSR
// generation, if t is one of its triples and visible in this snapshot.
// A triple the snapshot sees only through its delta, or not at all, has
// no ordinal.
func (s *Snapshot) Ordinal(t Triple) (int, bool) {
	i, ok := s.gen.csr.ordinal(t)
	if ok && s.ops != nil && !s.Has(t) {
		return 0, false
	}
	return i, ok
}

// Out sets r to vertex v's outgoing edges as s sees them, (P, O) pairs,
// and returns r.
func (r *Run) Out(s *Snapshot, v ID) *Run { return r.out(s.gen, v, s.n) }

func (r *Run) out(gen *generation, v ID, n uint32) *Run {
	return r.set(gen.csr.out(v), &gen.delta.out, v, n)
}

// In sets r to vertex v's incoming edges as s sees them, (P, S) pairs,
// and returns r.
func (r *Run) In(s *Snapshot, v ID) *Run { return r.set(s.gen.csr.in(v), &s.gen.delta.in, v, s.n) }

// Pred sets r to the triples labelled p as s sees them, (S, O) pairs, and
// returns r.
func (r *Run) Pred(s *Snapshot, p ID) *Run {
	return r.set(s.gen.csr.pred(p), &s.gen.delta.pred, p, s.n)
}

// OutDegree returns the number of visible outgoing edges of v.
func (s *Snapshot) OutDegree(v ID) int { return new(Run).Out(s, v).Len() }

// InDegree is OutDegree for incoming edges.
func (s *Snapshot) InDegree(v ID) int { return new(Run).In(s, v).Len() }

// Degree returns the total (out + in) degree of v.
func (s *Snapshot) Degree(v ID) int { return s.OutDegree(v) + s.InDegree(v) }

// OutDegreeP returns the number of visible outgoing edges of v labelled
// p: an exact (vertex, predicate) selectivity in O(log deg + delta).
func (s *Snapshot) OutDegreeP(v, p ID) int { return new(Run).Out(s, v).Narrow(p).Len() }

// InDegreeP is OutDegreeP for incoming edges.
func (s *Snapshot) InDegreeP(v, p ID) int { return new(Run).In(s, v).Narrow(p).Len() }

// PredicateCount returns the number of visible triples labelled p.
func (s *Snapshot) PredicateCount(p ID) int { return new(Run).Pred(s, p).Len() }

// Predicates returns the distinct visible properties in ascending ID
// order.
func (s *Snapshot) Predicates() []ID {
	live := func(p ID) bool { return s.PredicateCount(p) > 0 }
	return s.liveKeys(s.gen.csr.preds, live, &s.gen.delta.pred)
}

// Vertices returns the distinct visible vertices (subjects ∪ objects) in
// ascending ID order.
func (s *Snapshot) Vertices() []ID {
	live := func(v ID) bool { return s.OutDegree(v) > 0 || s.InDegree(v) > 0 }
	return s.liveKeys(s.gen.csr.verts, live, &s.gen.delta.out, &s.gen.delta.in)
}

// liveKeys lists, ascending, the IDs with a visible run: those of base,
// the CSR's, and those that have one only in the delta indexes sides. An
// ID stays while live says some run of its own has a visible entry —
// which is not asked of the CSR's IDs unless deletes are pending, nor of
// anything at bound 0, where base itself is the answer.
func (s *Snapshot) liveKeys(base []ID, live func(ID) bool, sides ...*sync.Map) []ID {
	if s.n == 0 {
		return base
	}
	var extra []ID
	for _, side := range sides {
		side.Range(func(k, _ any) bool {
			if _, inBase := slices.BinarySearch(base, k.(ID)); !inBase && live(k.(ID)) {
				extra = append(extra, k.(ID))
			}
			return true
		})
	}
	if s.ops == nil && len(extra) == 0 {
		return base
	}
	slices.Sort(extra)
	extra = slices.Compact(extra) // a vertex can be in both of its sides
	out := make([]ID, 0, len(base)+len(extra))
	for _, id := range base {
		for len(extra) > 0 && extra[0] < id {
			out, extra = append(out, extra[0]), extra[1:]
		}
		if s.ops == nil || live(id) {
			out = append(out, id)
		}
	}
	return append(out, extra...)
}

// NumVertices returns the number of distinct visible vertices.
func (s *Snapshot) NumVertices() int { return len(s.Vertices()) }
