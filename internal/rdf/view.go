package rdf

import (
	"sync"
	"sync/atomic"
)

// ViewSource publishes batch-atomic read views over a set of graphs
// (a deployment's sites' graphs and its cold graph).
// The single writer calls Publish after each update batch, capturing a
// consistent (generation, delta length) cut of every registered graph;
// queries call Acquire to pin the latest published view lock-free. This
// is what makes a multi-graph query see either all or none of a batch's
// triples, the atomicity the old data lock provided — without the lock.
type ViewSource struct {
	mu     sync.Mutex // guards graphs and Publish/Register (writer-side)
	graphs []*Graph
	cur    atomic.Pointer[View]
}

// View is one published cut: an immutable per-graph snapshot vector.
// Views are shared by every handle acquired from them; pin accounting
// happens per handle, so the snapshots themselves are unpinned.
type View struct {
	snaps map[*Graph]*Snapshot
}

// ViewHandle is one query's lease on a View. Close releases the
// generation pins; the handle and its snapshots stay readable after
// Close (pins are observability, not lifetime — the GC owns memory),
// but well-behaved callers Close exactly once when the query finishes.
type ViewHandle struct {
	v      *View
	closed atomic.Bool
}

// NewViewSource returns an empty source; Register graphs, then Publish.
func NewViewSource() *ViewSource { return &ViewSource{} }

// Register adds a graph to the view set and republishes so the next
// Acquire sees it. Writer-side (serialized with Publish and updates).
func (vs *ViewSource) Register(g *Graph) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for _, have := range vs.graphs {
		if have == g {
			vs.publishLocked()
			return
		}
	}
	vs.graphs = append(vs.graphs, g)
	vs.publishLocked()
}

// Publish captures the current cut of every registered graph as the new
// view. Writer-side: call after an update batch is fully applied, never
// mid-batch.
func (vs *ViewSource) Publish() {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.publishLocked()
}

func (vs *ViewSource) publishLocked() {
	snaps := make(map[*Graph]*Snapshot, len(vs.graphs))
	for _, g := range vs.graphs {
		snaps[g] = g.snapshotAt()
	}
	vs.cur.Store(&View{snaps: snaps})
}

// Acquire pins the latest published view. Lock-free: it never contends
// with the writer, and the writer never waits for it. Close the handle
// when the query finishes. Acquire on a source that never published
// returns an empty handle whose Snap falls back to live snapshots.
func (vs *ViewSource) Acquire() *ViewHandle {
	v := vs.cur.Load()
	if v == nil {
		return &ViewHandle{}
	}
	for _, s := range v.snaps {
		s.gen.pins.Add(1)
	}
	return &ViewHandle{v: v}
}

// Snap returns the view's pinned snapshot of g. A graph outside the
// view (registered after this view was published) falls back to an
// unpinned snapshot of its current state — consistent per graph, just
// not part of the batch cut.
func (h *ViewHandle) Snap(g *Graph) *Snapshot {
	if h != nil && h.v != nil {
		if s, ok := h.v.snaps[g]; ok {
			return s
		}
	}
	return g.snapshotAt()
}

// Close releases the handle's generation pins. Idempotent; nil-safe.
func (h *ViewHandle) Close() {
	if h == nil || h.v == nil || h.closed.Swap(true) {
		return
	}
	for _, s := range h.v.snaps {
		s.gen.pins.Add(-1)
		s.g.pruneRetired()
	}
}

// Generations sums LiveGenerations over the registered graphs — the
// /metrics gauge for how many CSR builds are still alive.
func (vs *ViewSource) Generations() int {
	vs.mu.Lock()
	graphs := append([]*Graph(nil), vs.graphs...)
	vs.mu.Unlock()
	n := 0
	for _, g := range graphs {
		n += g.LiveGenerations()
	}
	return n
}

// PinnedSnapshots sums the pinned-snapshot gauge over the registered
// graphs.
func (vs *ViewSource) PinnedSnapshots() int {
	vs.mu.Lock()
	graphs := append([]*Graph(nil), vs.graphs...)
	vs.mu.Unlock()
	n := 0
	for _, g := range graphs {
		n += g.pinnedSnapshots()
	}
	return n
}
