package rdf

import (
	"fmt"
	"math"
	"slices"
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

// DefaultCompactFraction is the auto-compaction threshold: a graph
// folds its delta into the CSR once the delta exceeds this
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
// A graph has one form from NewGraph on: an immutable CSR generation —
// flat adjacency arenas, runs sorted by (P, Other), found through run
// indexes sized by the IDs the graph uses — plus that generation's delta
// overlay. A generation is its arenas: a triple is kept in the three
// indexes and nowhere else, so a graph is a set and lists its triples in
// (S, P, O) order, whatever order they arrived in. The graph is MVCC: Add
// and Delete append to the current generation's delta (LSM-style), Compact
// builds the next generation off to the side and swaps it in atomically,
// and addAll installs a bulk load as one generation without indexing it in
// a delta first.
//
// All reads go through Snapshot, an immutable view pinning a
// (generation, delta length) pair: a graph supports one writer concurrent
// with any number of snapshot readers, with no lock on the read path.
// Writer-side methods (Add, addAll, Delete, Freeze, Compact) are
// single-writer: they must not be called concurrently with each other,
// but they never invalidate a live Snapshot.
type Graph struct {
	Dict *Dict

	// liveCount is the number of live triples, an atomic so concurrent
	// readers (planner cardinality scaling) can read it while the writer
	// mutates.
	liveCount atomic.Int64

	// gen is the current CSR generation, never nil. Swapped atomically
	// by Compact and addAll; snapshot readers load it lock-free.
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
}

// NewGraph returns an empty graph sharing the given dictionary. A nil dict
// allocates a fresh one.
func NewGraph(d *Dict) *Graph {
	if d == nil {
		d = NewDict()
	}
	g := &Graph{Dict: d}
	g.installGeneration(buildCSR(nil))
	return g
}

// NewFrozen returns a graph holding the given triples in one CSR
// generation with an empty delta, however few they are and in whatever
// order: NewGraph and addAll's bulk path. The slice is the graph's to
// reorder; the graph does not keep it.
func NewFrozen(d *Dict, triples []Triple) *Graph {
	g := NewGraph(d)
	g.load(triples)
	return g
}

// addAll inserts a batch as Add of each triple in turn would — a triple
// the graph holds, or a repeat of an earlier one, is dropped — and
// returns how many were new. A batch at least as large as the current
// generation's auto-compaction threshold would leave a compaction behind
// anyway, so it is not indexed in the delta only to be discarded: one new
// generation is built over the graph's triples and the batch's. A smaller
// batch is a run of delta appends. Snapshots already pinned see none of it
// either way. Writer-side; the slice is the graph's to reorder, and the
// graph does not keep it.
func (g *Graph) addAll(ts []Triple) int {
	if len(ts) >= g.compactThreshold(g.gen.Load()) {
		return g.load(ts)
	}
	n := 0
	for _, t := range ts {
		if g.Add(t) {
			n++
		}
	}
	return n
}

// load is addAll's bulk path: one freshly built generation over what the
// graph holds — whatever delta the old generation carried folded in — and
// ts, sorted together so that a repeat, of a triple held or of an earlier
// one of ts, lies next to the original and goes.
func (g *Graph) load(ts []Triple) int {
	have := g.NumTriples()
	if have > 0 {
		ts = append(g.Triples(), ts...)
	}
	if !slices.IsSortedFunc(ts, CompareSPO) { // a matched edge set's triples, and a load's, arrive sorted
		slices.SortFunc(ts, CompareSPO)
	}
	ts = slices.Compact(ts)
	added := len(ts) - have
	if added == 0 {
		return 0
	}
	if g.DeltaLen() > 0 {
		g.compactions.Add(1)
	}
	g.liveCount.Add(int64(added))
	g.installGeneration(buildCSR(ts))
	return added
}

// Add inserts a triple; duplicates are ignored. It reports whether the
// triple was new. The triple goes to the current generation's delta
// overlay (possibly triggering an auto-compaction) and becomes visible to
// snapshots taken after Add returns; snapshots already pinned never see
// it.
func (g *Graph) Add(t Triple) bool {
	if g.Has(t) {
		return false
	}
	g.liveCount.Add(1)
	g.apply(t, false)
	return true
}

// apply logs and indexes one op that changes the set, an insert or a
// delete of t. Publish order: the op log first, then the delta runs,
// then the delta length (the readers' acquire point). A snapshot that
// observes delta length n is guaranteed to find all n ops in the log
// and the runs.
func (g *Graph) apply(t Triple, del bool) {
	gen := g.gen.Load()
	seq := uint32(gen.delta.n.Load())
	gen.delta.appendOp(t, del)
	gen.delta.index(t, seq, del)
	gen.delta.n.Add(1)
	if int(gen.delta.n.Load()) >= g.compactThreshold(gen) {
		g.Compact()
	}
}

// Delete removes a triple; deleting an absent (or never-inserted) triple
// is a no-op, not a phantom — it reports whether the triple was present.
// The delete lands as a tombstone in the current generation's delta
// overlay: snapshots taken after Delete returns no longer see the triple,
// snapshots already pinned keep seeing it, and Compact folds the
// tombstone away when it rebuilds the CSR. Writer-side, like Add.
func (g *Graph) Delete(t Triple) bool {
	if !g.Has(t) {
		return false
	}
	g.liveCount.Add(-1)
	g.apply(t, true)
	return true
}

// AddTerms interns the three terms and inserts the resulting triple.
func (g *Graph) AddTerms(s, p, o Term) Triple {
	t := Triple{S: g.Dict.Encode(s), P: g.Dict.Encode(p), O: g.Dict.Encode(o)}
	g.Add(t)
	return t
}

// Freeze folds the delta away, leaving a pure CSR behind: call after
// loading and before the match-heavy work.
func (g *Graph) Freeze() { g.Compact() }

// installGeneration publishes a freshly built CSR as the new current
// generation, retiring the previous one into the registry until its
// pinned snapshots drain.
func (g *Graph) installGeneration(csr *csrIndex) {
	g.genMu.Lock()
	defer g.genMu.Unlock()
	g.nextGenID++
	gen := &generation{id: g.nextGenID, csr: csr, delta: &genDelta{}}
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
func (g *Graph) LiveGenerations() int {
	g.genMu.Lock()
	defer g.genMu.Unlock()
	g.pruneLocked()
	return 1 + len(g.retired)
}

// pinnedSnapshots reports how many pinned (unclosed) snapshots exist
// across all generations of this graph.
func (g *Graph) pinnedSnapshots() int {
	n := g.gen.Load().pins.Load()
	g.genMu.Lock()
	for _, gen := range g.retired {
		n += gen.pins.Load()
	}
	g.genMu.Unlock()
	return int(n)
}

// DeltaLen returns the number of mutations (inserts and tombstones)
// waiting in the current generation's delta overlay (0 right after a
// compaction).
func (g *Graph) DeltaLen() int { return int(g.gen.Load().delta.n.Load()) }

// Compactions returns how many times a delta has been folded into a new
// CSR generation: by Compact directly, by the auto-compaction threshold,
// or by an addAll that found one.
func (g *Graph) Compactions() uint64 { return g.compactions.Load() }

// SetAutoCompact sets the delta/CSR ratio beyond which Add compacts
// automatically. 0 restores DefaultCompactFraction; a negative fraction
// disables auto-compaction (Compact/Freeze still work explicitly).
func (g *Graph) SetAutoCompact(fraction float64) { g.autoCompact = fraction }

// compactThreshold is the delta length at which gen compacts on its own:
// out of reach when auto-compaction is off.
func (g *Graph) compactThreshold(gen *generation) int {
	if g.autoCompact < 0 {
		return math.MaxInt
	}
	frac := g.autoCompact
	if frac == 0 {
		frac = DefaultCompactFraction
	}
	return min(max(int(frac*float64(len(gen.csr.outArena))), minCompactDelta), maxCompactDelta)
}

// Compact folds the current generation's delta into a freshly rebuilt
// CSR (one walk of the visible triples, which is where tombstones go) and
// swaps the new generation in atomically. In-flight snapshots keep
// reading the generation they pinned; the old generation is retired and
// forgotten once its last snapshot drains. No-op when the delta is empty.
func (g *Graph) Compact() {
	if g.DeltaLen() == 0 {
		return
	}
	g.installGeneration(buildCSR(g.Triples()))
	g.compactions.Add(1)
}

// Has reports whether the triple is present, as the writer sees it: it
// asks the current generation — its CSR, then its delta up to the last
// write — as a snapshot taken now would, without allocating. Writer-side,
// so it must not race Add; concurrent readers ask a Snapshot.
func (g *Graph) Has(t Triple) bool {
	gen := g.gen.Load()
	return new(Run).out(gen, t.S, uint32(gen.delta.n.Load())).has(Pair{t.P, t.O})
}

// NumTriples returns |E(G)|: live triples only (adds included, deletes
// excluded). It reads an atomic counter, so unlike the rest of the
// writer-side API it is safe concurrently with the writer; planner-side
// cardinality scaling reads it while updates land.
func (g *Graph) NumTriples() int { return int(g.liveCount.Load()) }

// Triples returns the live triples (delta triples included) in (S, P, O)
// order, in a slice the caller owns: Snapshot.Triples of the cut a
// snapshot taken now would pin.
func (g *Graph) Triples() []Triple { return g.snapshotAt().Triples() }

// TripleString renders a triple with decoded terms.
func (g *Graph) TripleString(t Triple) string {
	return fmt.Sprintf("%s %s %s .", g.Dict.Decode(t.S), g.Dict.Decode(t.P), g.Dict.Decode(t.O))
}
