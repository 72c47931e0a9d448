package rdf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Triple is a dictionary-encoded RDF triple 〈subject, property, object〉.
type Triple struct {
	S, P, O ID
}

// String renders the triple with raw IDs; use Graph.TripleString for terms.
func (t Triple) String() string {
	return fmt.Sprintf("(%d %d %d)", t.S, t.P, t.O)
}

// Edge is one directed labelled edge as seen from one endpoint.
type Edge struct {
	P     ID   // property (edge label)
	Other ID   // the vertex on the far end
	Out   bool // true if the edge leaves the vertex owning this adjacency entry
}

// HalfEdge is one adjacency entry: the edge label and the far endpoint.
// The direction is implied by which index (out or in) it came from.
type HalfEdge struct {
	P     ID
	Other ID
}

// DefaultCompactFraction is the auto-compaction threshold: a frozen
// graph folds its delta into the CSR once the delta exceeds this
// fraction of the CSR's triples (see SetAutoCompact).
const DefaultCompactFraction = 0.25

// minCompactDelta is the smallest delta worth compacting automatically;
// below it a rebuild costs more than the merged reads save.
const minCompactDelta = 64

// maxCompactDelta caps the auto-compact threshold in absolute terms.
// Delta inserts are copy-on-write, O(run length) each, so on a huge
// graph a fraction-of-|E| threshold alone would let a skewed update
// stream (every triple sharing one predicate) grow a single sorted run
// to millions of entries and turn the stream quadratic. The cap bounds
// any run — and the per-read merge work — regardless of graph size.
const maxCompactDelta = 1 << 16

// Graph is an in-memory RDF graph (Definition 1): vertices are all subjects
// and objects, directed edges are triples labelled by property.
//
// While loading, the graph keeps a membership map and map-of-slices
// indexes (adjacency and per-property), cheap to append to. Freeze
// compiles the triple list into an immutable CSR index and releases all
// four maps (NewFrozen builds a graph in that form from a triple list, the
// maps never existing): flat adjacency arenas, runs sorted by (P, Other),
// found through run indexes sized by the IDs the graph uses. A frozen
// graph is those arenas and its triple list, nothing per triple besides.
// From then on the graph is MVCC: each CSR build is a generation, Add
// appends to the current generation's delta overlay (LSM-style), and
// Compact builds the next generation off to the side and swaps it in
// atomically.
//
// All reads go through Snapshot, an immutable view pinning a
// (generation, delta length) pair: a frozen graph supports one writer
// concurrent with any number of snapshot readers, with no lock on the
// read path. Writer-side methods (Add, Freeze, Compact, Merge, Triples)
// are single-writer: they must not be called concurrently with each
// other, but they never invalidate a live Snapshot. Map-mode graphs keep
// the old contract — no mutation concurrent with reads.
type Graph struct {
	Dict *Dict

	order []Triple // insertion order, for deterministic iteration (writer-owned)

	// staleOrder counts occurrences in order that are no longer live
	// (deleted, or superseded by a later re-insert). Frozen-mode deletes
	// only tombstone, so order grows append-only within a generation;
	// Compact rebuilds it without the stale occurrences.
	staleOrder int

	// liveOrder caches the materialized live triple list when order
	// carries stale occurrences; valid while liveOrderAt == epoch.
	liveOrder   []Triple
	liveOrderAt uint64

	// liveCount is the number of live triples, an atomic so concurrent
	// readers (planner cardinality scaling) can read it while the writer
	// mutates.
	liveCount atomic.Int64

	// Map-mode membership and indexes; nil once frozen.
	triples map[Triple]struct{}
	out     map[ID][]HalfEdge // subject -> (P,O)
	in      map[ID][]HalfEdge // object  -> (P,S)
	byPred  map[ID][]Triple   // property -> triples

	// gen is the current CSR generation; nil in map mode. Swapped
	// atomically by Freeze/Compact; snapshot readers load it lock-free.
	gen atomic.Pointer[generation]

	// genMu guards the retired-generation registry and generation
	// installation; snapshot reads never take it.
	genMu     sync.Mutex
	retired   []*generation // superseded generations still pinned by snapshots
	nextGenID uint64

	// autoCompact is the delta/CSR size ratio that triggers Compact from
	// Add; 0 means DefaultCompactFraction, negative disables.
	autoCompact float64
	compactions atomic.Uint64

	// epoch increments on every successful Add. Derived caches (Stats)
	// compare epochs to decide whether they are stale.
	epoch atomic.Uint64
}

// NewGraph returns an empty graph sharing the given dictionary. A nil dict
// allocates a fresh one.
func NewGraph(d *Dict) *Graph {
	if d == nil {
		d = NewDict()
	}
	return &Graph{
		Dict:    d,
		triples: make(map[Triple]struct{}),
		out:     make(map[ID][]HalfEdge),
		in:      make(map[ID][]HalfEdge),
		byPred:  make(map[ID][]Triple),
	}
}

// NewFrozen returns a frozen graph holding the given triples, as
// NewGraph, Add of each in turn and Freeze would build it (a repeated
// triple counts once, at its first position) but without the map-mode
// maps ever existing. The slice belongs to the graph afterwards.
func NewFrozen(d *Dict, triples []Triple) *Graph {
	if d == nil {
		d = NewDict()
	}
	g := &Graph{Dict: d, order: firstOccurrences(triples)}
	g.liveCount.Store(int64(len(g.order)))
	g.epoch.Store(uint64(len(g.order))) // where that many Adds leave it
	g.installGeneration(buildCSR(g.order))
	return g
}

// firstOccurrences drops, in place, every repeat of a triple.
func firstOccurrences(ts []Triple) []Triple {
	ascending := true
	for i := 1; i < len(ts) && ascending; i++ {
		ascending = CompareSPO(ts[i-1], ts[i]) < 0
	}
	if ascending { // as an edge set lists its triples: nothing repeats
		return ts
	}
	seen := make(map[Triple]struct{}, len(ts))
	out := ts[:0]
	for _, t := range ts {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out
}

// Add inserts a triple; duplicates are ignored. It reports whether the
// triple was new. On a frozen graph the triple goes to the current
// generation's delta overlay (possibly triggering an auto-compaction)
// and becomes visible to snapshots taken after Add returns; snapshots
// already pinned never see it.
func (g *Graph) Add(t Triple) bool {
	if g.Has(t) {
		return false
	}
	g.order = append(g.order, t)
	g.liveCount.Add(1)
	if gen := g.gen.Load(); gen != nil {
		// Publish order: order header first, then the op log, then the
		// delta runs, then the delta length (the readers' acquire
		// point). A snapshot that observes delta length n is guaranteed
		// to find all n ops in the order prefix, the log and the runs.
		ord := g.order
		gen.ord.Store(&ord)
		seq := uint32(gen.delta.n.Load())
		gen.delta.appendOp(t, false)
		gen.delta.add(t, seq)
		gen.delta.n.Add(1)
		g.epoch.Add(1)
		if g.shouldCompact(gen) {
			g.Compact()
		}
		return true
	}
	g.triples[t] = struct{}{}
	g.out[t.S] = append(g.out[t.S], HalfEdge{P: t.P, Other: t.O})
	g.in[t.O] = append(g.in[t.O], HalfEdge{P: t.P, Other: t.S})
	g.byPred[t.P] = append(g.byPred[t.P], t)
	g.epoch.Add(1)
	return true
}

// Delete removes a triple; deleting an absent (or never-inserted) triple
// is a no-op, not a phantom — it reports whether the triple was present.
// On a frozen graph the delete lands as a tombstone in the current
// generation's delta overlay: snapshots taken after Delete returns no
// longer see the triple, snapshots already pinned keep seeing it, and
// Compact folds the tombstone away when it rebuilds the CSR. Writer-side,
// like Add.
func (g *Graph) Delete(t Triple) bool {
	if !g.Has(t) {
		return false
	}
	g.liveCount.Add(-1)
	if gen := g.gen.Load(); gen != nil {
		g.staleOrder++
		seq := uint32(gen.delta.n.Load())
		gen.delta.appendOp(t, true)
		gen.delta.addTomb(t, seq)
		gen.delta.dels.Add(1)
		gen.delta.n.Add(1)
		g.epoch.Add(1)
		if g.shouldCompact(gen) {
			g.Compact()
		}
		return true
	}
	// Map mode: splice the triple out of every index (old contract — no
	// readers concurrent with mutation).
	delete(g.triples, t)
	g.order = spliceTriple(g.order, t)
	if run := spliceHalf(g.out[t.S], HalfEdge{P: t.P, Other: t.O}); len(run) > 0 {
		g.out[t.S] = run
	} else {
		delete(g.out, t.S)
	}
	if run := spliceHalf(g.in[t.O], HalfEdge{P: t.P, Other: t.S}); len(run) > 0 {
		g.in[t.O] = run
	} else {
		delete(g.in, t.O)
	}
	if run := spliceTriple(g.byPred[t.P], t); len(run) > 0 {
		g.byPred[t.P] = run
	} else {
		delete(g.byPred, t.P)
	}
	g.epoch.Add(1)
	return true
}

// spliceTriple removes the first occurrence of t, preserving order.
func spliceTriple(run []Triple, t Triple) []Triple {
	for i, x := range run {
		if x == t {
			return append(run[:i], run[i+1:]...)
		}
	}
	return run
}

// spliceHalf removes the first occurrence of h, preserving order.
func spliceHalf(run []HalfEdge, h HalfEdge) []HalfEdge {
	for i, x := range run {
		if x == h {
			return append(run[:i], run[i+1:]...)
		}
	}
	return run
}

// AddTerms interns the three terms and inserts the resulting triple.
func (g *Graph) AddTerms(s, p, o Term) Triple {
	t := Triple{S: g.Dict.Encode(s), P: g.Dict.Encode(p), O: g.Dict.Encode(o)}
	g.Add(t)
	return t
}

// Freeze compiles the graph into its immutable CSR form (the first
// generation) and releases the maps. Idempotent; call after bulk
// loading and before issuing queries. On an already-frozen graph
// carrying a delta it compacts, so Freeze always leaves a pure CSR
// behind.
func (g *Graph) Freeze() {
	if g.gen.Load() != nil {
		g.Compact()
		return
	}
	g.installGeneration(buildCSR(g.order))
	g.triples, g.out, g.in, g.byPred = nil, nil, nil, nil
}

// installGeneration publishes a freshly built CSR as the new current
// generation, retiring the previous one into the registry until its
// pinned snapshots drain.
func (g *Graph) installGeneration(csr *csrIndex) {
	g.genMu.Lock()
	defer g.genMu.Unlock()
	g.nextGenID++
	gen := &generation{id: g.nextGenID, csr: csr, base: len(g.order), delta: &genDelta{}}
	ord := g.order
	gen.ord.Store(&ord)
	if old := g.gen.Load(); old != nil {
		g.retired = append(g.retired, old)
	}
	g.gen.Store(gen)
	g.pruneLocked()
}

// pruneRetired forgets retired generations whose last pinned snapshot
// has drained. Memory reclamation itself is the garbage collector's job
// (arenas die with their last snapshot); the registry exists so the
// LiveGenerations/PinnedSnapshots gauges reflect reality.
func (g *Graph) pruneRetired() {
	g.genMu.Lock()
	g.pruneLocked()
	g.genMu.Unlock()
}

func (g *Graph) pruneLocked() {
	kept := g.retired[:0]
	for _, gen := range g.retired {
		if gen.pins.Load() > 0 {
			kept = append(kept, gen)
		}
	}
	for i := len(kept); i < len(g.retired); i++ {
		g.retired[i] = nil
	}
	g.retired = kept
}

// LiveGenerations reports how many CSR generations are currently alive:
// the serving generation plus retired ones still pinned by snapshots.
// Zero in map mode.
func (g *Graph) LiveGenerations() int {
	if g.gen.Load() == nil {
		return 0
	}
	g.genMu.Lock()
	defer g.genMu.Unlock()
	g.pruneLocked()
	return 1 + len(g.retired)
}

// PinnedSnapshots reports how many pinned (unclosed) snapshots exist
// across all generations of this graph.
func (g *Graph) PinnedSnapshots() int {
	n := int64(0)
	if gen := g.gen.Load(); gen != nil {
		n += gen.pins.Load()
	}
	g.genMu.Lock()
	for _, gen := range g.retired {
		n += gen.pins.Load()
	}
	g.genMu.Unlock()
	return int(n)
}

// Frozen reports whether the graph is in CSR mode (possibly carrying a
// delta overlay; see DeltaLen).
func (g *Graph) Frozen() bool { return g.gen.Load() != nil }

// DeltaLen returns the number of post-freeze mutations (inserts and
// tombstones) waiting in the current generation's delta overlay (0 in
// map mode or right after a compaction).
func (g *Graph) DeltaLen() int {
	gen := g.gen.Load()
	if gen == nil {
		return 0
	}
	return int(gen.delta.n.Load())
}

// DeltaTombstones returns how many of the current generation's delta
// mutations are tombstones.
func (g *Graph) DeltaTombstones() int {
	gen := g.gen.Load()
	if gen == nil {
		return 0
	}
	return int(gen.delta.dels.Load())
}

// Compactions returns how many times the delta has been folded into a
// new CSR generation, by Compact directly or by the auto-compaction
// threshold.
func (g *Graph) Compactions() uint64 { return g.compactions.Load() }

// Epoch returns the graph's mutation counter: it increments on every
// successful Add or Delete. Derived caches use it to detect staleness.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// SetAutoCompact sets the delta/CSR ratio beyond which Add compacts
// automatically. 0 restores DefaultCompactFraction; a negative fraction
// disables auto-compaction (Compact/Freeze still work explicitly).
func (g *Graph) SetAutoCompact(fraction float64) { g.autoCompact = fraction }

func (g *Graph) shouldCompact(gen *generation) bool {
	if g.autoCompact < 0 {
		return false
	}
	frac := g.autoCompact
	if frac == 0 {
		frac = DefaultCompactFraction
	}
	threshold := int(frac * float64(gen.base))
	if threshold < minCompactDelta {
		threshold = minCompactDelta
	}
	if threshold > maxCompactDelta {
		threshold = maxCompactDelta
	}
	return int(gen.delta.n.Load()) >= threshold
}

// Compact folds the current generation's delta into a freshly rebuilt
// CSR (one pass over the triple list) and swaps the new generation in
// atomically. In-flight snapshots keep reading the generation they
// pinned; the old generation is retired and forgotten once its last
// snapshot drains. No-op in map mode or when the delta is empty.
func (g *Graph) Compact() {
	gen := g.gen.Load()
	if gen == nil || gen.delta.n.Load() == 0 {
		return
	}
	g.compactOrder()
	g.installGeneration(buildCSR(g.order))
	g.compactions.Add(1)
}

// compactOrder rebuilds the insertion-order list without stale
// occurrences (this is where tombstones get folded away). The rebuild is
// a fresh slice — retired generations' published order headers keep
// pointing at the old array, so pinned snapshots are unaffected.
func (g *Graph) compactOrder() {
	if g.staleOrder == 0 {
		return
	}
	g.order = g.Triples()
	g.liveOrder = nil
	g.staleOrder = 0
}

// Has reports whether the triple is present, as the writer sees it: once
// frozen it asks the current generation — its CSR, then its delta up to
// the last write — as a snapshot taken now would, without allocating.
// Writer-side, so it must not race Add; concurrent readers use
// Snapshot.Has.
func (g *Graph) Has(t Triple) bool {
	gen := g.gen.Load()
	if gen == nil {
		_, ok := g.triples[t]
		return ok
	}
	return gen.has(t, uint32(gen.delta.n.Load()), gen.delta.dels.Load() > 0)
}

// NumTriples returns |E(G)|: live triples only (adds included, deletes
// excluded). It reads an atomic counter, so unlike the rest of the
// writer-side API it is safe concurrently with the writer; planner-side
// cardinality scaling reads it while updates land.
func (g *Graph) NumTriples() int { return int(g.liveCount.Load()) }

// Triples returns the live triples in insertion order (delta triples
// included — they are the newest suffix; a triple re-inserted after a
// delete counts from its latest insertion). Writer-side; the returned
// slice is owned by the graph and must not be mutated. Concurrent
// readers use Snapshot.Triples.
func (g *Graph) Triples() []Triple {
	if g.staleOrder == 0 {
		return g.order
	}
	if g.liveOrder == nil || g.liveOrderAt != g.epoch.Load() {
		g.liveOrder = g.snapshotAt().Triples()
		g.liveOrderAt = g.epoch.Load()
	}
	return g.liveOrder
}

// mergeIDs merges two sorted, disjoint ID slices. With an empty extra it
// returns base unchanged (zero-copy).
func mergeIDs(base, extra []ID) []ID {
	if len(extra) == 0 {
		return base
	}
	return mergeSorted(base, extra, func(a, b ID) int {
		if a < b {
			return -1
		} else if a > b {
			return 1
		}
		return 0
	})
}

// TripleString renders a triple with decoded terms.
func (g *Graph) TripleString(t Triple) string {
	return fmt.Sprintf("%s %s %s .", g.Dict.Decode(t.S), g.Dict.Decode(t.P), g.Dict.Decode(t.O))
}

// Clone returns a deep copy of the graph structure sharing the dictionary.
// The copy is in map mode regardless of the receiver's mode.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Dict)
	for _, t := range g.Triples() {
		c.Add(t)
	}
	return c
}

// Merge inserts all triples of other into g (dictionaries must be shared).
func (g *Graph) Merge(other *Graph) {
	if other == nil {
		return
	}
	if other.Dict != g.Dict {
		panic("rdf: Merge requires a shared dictionary")
	}
	for _, t := range other.Triples() {
		g.Add(t)
	}
}

// SubgraphByPredicates returns a new graph (sharing the dictionary)
// containing exactly the triples whose property is in keep.
func (g *Graph) SubgraphByPredicates(keep map[ID]bool) *Graph {
	sub := NewGraph(g.Dict)
	for _, t := range g.Triples() {
		if keep[t.P] {
			sub.Add(t)
		}
	}
	return sub
}
