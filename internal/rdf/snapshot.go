package rdf

import (
	"slices"
	"sort"
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
// only type the read path (match, exec, cluster, serve) consumes; all
// two-run accessors live here. A Snapshot is safe for concurrent use by
// many goroutines and stays valid indefinitely; Close releases its pin
// on the generation (needed only for the generation-lifecycle gauges —
// an unclosed snapshot leaks a gauge increment, not memory).
type Snapshot struct {
	g      *Graph
	gen    *generation // never nil
	n      uint32      // delta visibility bound: entries with Seq < n are visible
	order  []Triple    // pinned insertion-order prefix
	pinned bool
	closed atomic.Bool

	// ops is the visible op window when it contains deletes; nil for
	// insert-only windows, whose read paths are byte-for-byte the
	// two-run fast paths of the delete-free engine. With ops set, the
	// order prefix may carry stale occurrences; Triples/NumTriples
	// materialize the live list lazily (once) instead of slicing.
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

// Bound returns the delta visibility bound: delta entries with
// Seq < Bound belong to this snapshot. The match cursor uses it to
// filter raw delta runs during its inline merges.
func (s *Snapshot) Bound() uint32 { return s.n }

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
func (s *Snapshot) Has(t Triple) bool {
	return s.gen.has(t, s.n, s.ops != nil)
}

// has reports whether t is visible at delta bound n: in the CSR or
// inserted below n, and not tombstoned since. tombs says whether a
// tombstone below n exists at all.
func (gen *generation) has(t Triple, n uint32, tombs bool) bool {
	_, basePresent := gen.csr.ordinal(t)
	if n == 0 {
		return basePresent
	}
	key := HalfEdge{P: t.P, Other: t.O}
	insVis, insSeq := maxVisibleSeqHalf(predRangeDeltaHalf(loadHalfRun(&gen.delta.out, t.S), t.P), key, n)
	if !tombs {
		return basePresent || insVis
	}
	tombVis, tombSeq := maxVisibleSeqHalf(predRangeDeltaHalf(loadHalfRun(&gen.delta.tombOut, t.S), t.P), key, n)
	return VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq)
}

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

// OutEdges2 returns the outgoing (P, Other) adjacency of vertex v as
// zero-copy runs: the immutable CSR run plus the raw insert and
// tombstone delta runs, all sorted by (P, Other). Delta entries with
// Seq >= Bound() belong to writes after this snapshot and must be
// skipped by the caller (the match cursor does this inline; the
// allocating OutEdges pre-filters). The tombstone run is nil whenever
// the snapshot's window is insert-only — the common case, where callers
// keep their two-run merge.
func (s *Snapshot) OutEdges2(v ID) (base []HalfEdge, ins, tomb []DeltaHalf) {
	if s.n == 0 { // empty visible delta: skip the side-index lookup
		return s.gen.csr.out(v), nil, nil
	}
	if s.ops != nil {
		tomb = loadHalfRun(&s.gen.delta.tombOut, v)
	}
	return s.gen.csr.out(v), loadHalfRun(&s.gen.delta.out, v), tomb
}

// InEdges2 is OutEdges2 for incoming edges of v.
func (s *Snapshot) InEdges2(v ID) (base []HalfEdge, ins, tomb []DeltaHalf) {
	if s.n == 0 {
		return s.gen.csr.in(v), nil, nil
	}
	if s.ops != nil {
		tomb = loadHalfRun(&s.gen.delta.tombIn, v)
	}
	return s.gen.csr.in(v), loadHalfRun(&s.gen.delta.in, v), tomb
}

// OutRun2 narrows OutEdges2 to the sub-runs labelled p, each found by
// binary search. The delta runs are raw: filter by Seq < Bound().
func (s *Snapshot) OutRun2(v, p ID) (base []HalfEdge, ins, tomb []DeltaHalf) {
	if s.n == 0 {
		return predRange(s.gen.csr.out(v), p), nil, nil
	}
	if s.ops != nil {
		tomb = predRangeDeltaHalf(loadHalfRun(&s.gen.delta.tombOut, v), p)
	}
	return predRange(s.gen.csr.out(v), p), predRangeDeltaHalf(loadHalfRun(&s.gen.delta.out, v), p), tomb
}

// InRun2 is OutRun2 for incoming edges of v.
func (s *Snapshot) InRun2(v, p ID) (base []HalfEdge, ins, tomb []DeltaHalf) {
	if s.n == 0 {
		return predRange(s.gen.csr.in(v), p), nil, nil
	}
	if s.ops != nil {
		tomb = predRangeDeltaHalf(loadHalfRun(&s.gen.delta.tombIn, v), p)
	}
	return predRange(s.gen.csr.in(v), p), predRangeDeltaHalf(loadHalfRun(&s.gen.delta.in, v), p), tomb
}

// ByPredicate2 returns the triples labelled p as zero-copy runs: the
// CSR arena run plus the raw insert and tombstone delta runs, all
// sorted by (S, O). The delta runs are raw: filter by Seq < Bound().
func (s *Snapshot) ByPredicate2(p ID) (base []Triple, ins, tomb []DeltaTriple) {
	if s.n == 0 {
		return s.gen.csr.pred(p), nil, nil
	}
	if s.ops != nil {
		tomb = loadTripleRun(&s.gen.delta.tombByPred, p)
	}
	return s.gen.csr.pred(p), loadTripleRun(&s.gen.delta.byPred, p), tomb
}

// OutEdges returns the outgoing adjacency of v merged into one run
// sorted by (P, Other). It allocates when v has visible delta edges;
// the matcher uses OutEdges2 instead.
func (s *Snapshot) OutEdges(v ID) []HalfEdge {
	return s.mergedHalf(s.OutEdges2(v))
}

// InEdges is OutEdges for incoming edges of v.
func (s *Snapshot) InEdges(v ID) []HalfEdge {
	return s.mergedHalf(s.InEdges2(v))
}

// mergedHalf merges a CSR adjacency run with what this snapshot sees of
// its delta runs; the base run itself when that is nothing.
func (s *Snapshot) mergedHalf(base []HalfEdge, ins, tomb []DeltaHalf) []HalfEdge {
	if len(tomb) > 0 {
		return visibleMergedHalf(base, ins, tomb, s.n)
	}
	if len(ins) == 0 {
		return base
	}
	return mergeHalf(base, visibleHalf(ins, s.n))
}

// countHalf is len(mergedHalf) without building the run.
func (s *Snapshot) countHalf(base []HalfEdge, ins, tomb []DeltaHalf) int {
	if len(tomb) > 0 {
		return countMergedHalf(base, ins, tomb, s.n)
	}
	return len(base) + countVisibleHalf(ins, s.n)
}

// OutRun returns v's outgoing edges labelled p, merged.
func (s *Snapshot) OutRun(v, p ID) []HalfEdge {
	return s.mergedHalf(s.OutRun2(v, p))
}

// InRun is OutRun for incoming edges of v.
func (s *Snapshot) InRun(v, p ID) []HalfEdge {
	return s.mergedHalf(s.InRun2(v, p))
}

// ByPredicate returns all visible triples labelled p, merged into one
// (S, O)-sorted run.
func (s *Snapshot) ByPredicate(p ID) []Triple {
	base, ins, tomb := s.ByPredicate2(p)
	if len(tomb) > 0 {
		return visibleMergedTriples(base, ins, tomb, s.n)
	}
	if len(ins) == 0 {
		return base
	}
	return mergeTriples(base, visibleTriples(ins, s.n))
}

// OutDegree returns the number of visible outgoing edges of v.
func (s *Snapshot) OutDegree(v ID) int { return s.countHalf(s.OutEdges2(v)) }

// InDegree is OutDegree for incoming edges.
func (s *Snapshot) InDegree(v ID) int { return s.countHalf(s.InEdges2(v)) }

// Degree returns the total (out + in) degree of v.
func (s *Snapshot) Degree(v ID) int { return s.OutDegree(v) + s.InDegree(v) }

// OutDegreeP returns the number of visible outgoing edges of v labelled
// p: an exact (vertex, predicate) selectivity in O(log deg + delta).
func (s *Snapshot) OutDegreeP(v, p ID) int { return s.countHalf(s.OutRun2(v, p)) }

// InDegreeP is OutDegreeP for incoming edges.
func (s *Snapshot) InDegreeP(v, p ID) int { return s.countHalf(s.InRun2(v, p)) }

// PredicateCount returns the number of visible triples labelled p.
func (s *Snapshot) PredicateCount(p ID) int {
	base, ins, tomb := s.ByPredicate2(p)
	if len(tomb) > 0 {
		return countMergedTriples(base, ins, tomb, s.n)
	}
	return len(base) + countVisibleTriples(ins, s.n)
}

// Predicates returns the distinct visible properties in ascending ID
// order.
func (s *Snapshot) Predicates() []ID {
	c := s.gen.csr
	if s.n == 0 {
		return c.preds
	}
	if s.ops != nil {
		// Deletes pending: a predicate stays only while a live triple
		// carries it. Derive the set from the materialized triple list,
		// exactly as a rebuild would.
		seen := make(map[ID]struct{})
		ps := make([]ID, 0, len(c.preds))
		for _, t := range s.materialize() {
			if _, dup := seen[t.P]; !dup {
				seen[t.P] = struct{}{}
				ps = append(ps, t.P)
			}
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		return ps
	}
	var extra []ID
	s.gen.delta.byPred.Range(func(k, v any) bool {
		p := k.(ID)
		if len(c.pred(p)) == 0 && countVisibleTriples(v.([]DeltaTriple), s.n) > 0 {
			extra = append(extra, p)
		}
		return true
	})
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return mergeIDs(c.preds, extra)
}

// Vertices returns the distinct visible vertices (subjects ∪ objects) in
// ascending ID order.
func (s *Snapshot) Vertices() []ID {
	c := s.gen.csr
	if s.n == 0 {
		return c.verts
	}
	if s.ops != nil {
		// Deletes pending: derive the vertex set from the materialized
		// triple list, exactly as a rebuild would.
		seen := make(map[ID]struct{})
		for _, t := range s.materialize() {
			seen[t.S] = struct{}{}
			seen[t.O] = struct{}{}
		}
		vs := make([]ID, 0, len(seen))
		for v := range seen {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		return vs
	}
	seen := make(map[ID]struct{})
	for _, side := range []*sync.Map{&s.gen.delta.out, &s.gen.delta.in} {
		side.Range(func(k, v any) bool {
			id := k.(ID)
			if _, dup := seen[id]; dup {
				return true
			}
			if len(c.out(id)) > 0 || len(c.in(id)) > 0 {
				return true // already in the CSR vertex set
			}
			if countVisibleHalf(v.([]DeltaHalf), s.n) > 0 {
				seen[id] = struct{}{}
			}
			return true
		})
	}
	extra := make([]ID, 0, len(seen))
	for v := range seen {
		extra = append(extra, v)
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return mergeIDs(c.verts, extra)
}

// NumVertices returns the number of distinct visible vertices.
func (s *Snapshot) NumVertices() int { return len(s.Vertices()) }
