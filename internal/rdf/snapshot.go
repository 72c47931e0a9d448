package rdf

import (
	"iter"
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
	delta *genDelta
	pins  atomic.Int64 // snapshots currently pinning this generation
}

// Snapshot is an immutable, lock-free read view of a graph: it pins a
// (CSR generation, delta length) pair at acquisition, so concurrent
// writer appends and even compactions are invisible to it. It is the
// only type the read path (match, exec, cluster, serve) consumes: what it
// sees of an index run is a Run (Run.Out, In, Pred), and the degrees and
// the membership test are questions put to one; its triple list is a walk
// of those runs in (S, P, O) order, its triple count arithmetic on the op
// log, and it holds nothing of its own beside the pair. A Snapshot is
// safe for concurrent use by many goroutines and stays valid
// indefinitely; Close releases its pin on the generation (needed only for
// the generation-lifecycle gauges — an unclosed snapshot leaks a gauge
// increment, not memory).
type Snapshot struct {
	g      *Graph
	gen    *generation // never nil
	n      uint32      // delta visibility bound: ops with a sequence number < n are visible
	pinned bool
	closed atomic.Bool
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
	return &Snapshot{g: g, gen: gen, n: uint32(gen.delta.n.Load())}
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

// Compacted reports whether the snapshot sees no op of the delta, so that
// the triples it shows are exactly its CSR generation's.
func (s *Snapshot) Compacted() bool { return s.n == 0 }

// dels returns how many of the ops the snapshot sees are deletes; the
// others are inserts. The log is append-only, so whatever header is
// published now holds the n ops that were there at the cut.
func (s *Snapshot) dels() int {
	if s.n == 0 {
		return 0
	}
	return int(s.n - (*s.gen.delta.opsHdr.Load())[s.n-1].Adds)
}

// NumTriples returns the number of triples visible in this snapshot:
// every logged op changed the set, an insert by one more and a delete by
// one fewer, so it is arithmetic and allocates nothing.
func (s *Snapshot) NumTriples() int {
	return len(s.gen.csr.outArena) + int(s.n) - 2*s.dels()
}

// All yields the visible triples in (S, P, O) order: under each ID that
// can have an outgoing run, ascending, what a Cursor over the run yields.
// While the snapshot sees no delta the walk allocates nothing, so a
// checkpoint streams a graph of any size from it.
func (s *Snapshot) All() iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		for v := range s.runKeys(s.gen.csr.outRuns, runIndex{}, &s.gen.delta.out) {
			var c Cursor
			c.Out(s, v)
			for e, ok := c.Next(); ok; e, ok = c.Next() {
				if !yield(Triple{S: v, P: e.A, O: e.B}) {
					return
				}
			}
		}
	}
}

// Triples returns All's triples in a slice the caller owns.
func (s *Snapshot) Triples() []Triple {
	return slices.AppendSeq(make([]Triple, 0, s.NumTriples()), s.All())
}

// has reports whether the triple is visible in this snapshot.
func (s *Snapshot) has(t Triple) bool { return new(Run).Out(s, t.S).has(Pair{t.P, t.O}) }

// ordinal returns t's position in the (S, P, O) order of the pinned CSR
// generation, if t is one of its triples and visible in this snapshot.
// A triple the snapshot sees only through its delta, or not at all, has
// no ordinal.
func (s *Snapshot) ordinal(t Triple) (int, bool) {
	i, ok := s.gen.csr.ordinal(t)
	if ok && s.dels() > 0 && !s.has(t) {
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
func (r *Run) In(s *Snapshot, v ID) *Run { return r.in(s.gen, v, s.n) }

func (r *Run) in(gen *generation, v ID, n uint32) *Run {
	return r.set(gen.csr.in(v), &gen.delta.in, v, n)
}

// Pred sets r to the triples labelled p as s sees them, (S, O) pairs, and
// returns r.
func (r *Run) Pred(s *Snapshot, p ID) *Run {
	return r.set(s.gen.csr.pred(p), &s.gen.delta.pred, p, s.n)
}

// PredRun returns the triples labelled p, (S, O) pairs in that order, as
// the CSR generation's own run: a slice of its arena, which the caller
// must not modify. It needs a compacted snapshot (Compacted), whose runs
// are the CSR's; over any other it panics, as EdgeSet.AddOut does.
func (s *Snapshot) PredRun(p ID) []Pair {
	if !s.Compacted() {
		panic("rdf: Snapshot.PredRun over a snapshot with a delta")
	}
	return s.gen.csr.pred(p)
}

// OutDegree returns the number of visible outgoing edges of v.
func (s *Snapshot) OutDegree(v ID) int { return new(Run).Out(s, v).Len() }

// InDegree is OutDegree for incoming edges.
func (s *Snapshot) InDegree(v ID) int { return new(Run).In(s, v).Len() }

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
	if s.n == 0 {
		return s.gen.csr.preds
	}
	var out []ID
	for p := range s.runKeys(s.gen.csr.predRuns, runIndex{}, &s.gen.delta.pred) {
		if s.PredicateCount(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Vertices returns the distinct visible vertices (subjects ∪ objects) in
// ascending ID order.
func (s *Snapshot) Vertices() []ID {
	var out []ID
	for v := range s.runKeys(s.gen.csr.outRuns, s.gen.csr.inRuns, &s.gen.delta.out, &s.gen.delta.in) {
		if s.n == 0 || s.OutDegree(v) > 0 || s.InDegree(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// runKeys yields, ascending, the IDs that can have a visible run: those
// with a run in x or y, the CSR's, and — not at bound 0, where nothing of
// the delta is visible — those with one in the delta indexes sides.
// Whether such a run has a visible entry is for a Run to say.
func (s *Snapshot) runKeys(x, y runIndex, sides ...*sync.Map) iter.Seq[ID] {
	return func(yield func(ID) bool) {
		var extra []ID // the delta's keys
		if s.n > 0 {
			for _, side := range sides {
				side.Range(func(k, _ any) bool {
					extra = append(extra, k.(ID))
					return true
				})
			}
			slices.Sort(extra)
			extra = slices.Compact(extra) // a vertex can be in both of its sides
		}
		for id := range keys(x, y) {
			for ; len(extra) > 0 && extra[0] <= id; extra = extra[1:] {
				if extra[0] < id && !yield(extra[0]) {
					return
				}
			}
			if !yield(id) {
				return
			}
		}
		for _, id := range extra {
			if !yield(id) {
				return
			}
		}
	}
}
