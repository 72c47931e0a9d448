package rdf

import (
	"iter"
	"math/bits"
	"slices"
)

// csrIndex is the storage engine: a generation's triples compiled into
// compressed-sparse-row form, three flat []Pair arenas. Adjacency lives in
// two (outgoing grouped by subject, incoming grouped by object), each
// vertex's run sorted by (P, Other) so a constant-predicate lookup on a
// bound endpoint is a binary search to a contiguous sub-run instead of a
// full adjacency scan. The third groups the triples by predicate, each
// predicate's run its (S, O) pairs in that order: the predicate is the
// run's key and is not stored again. All lookups return subslices of the
// arenas: zero allocations on the match/join hot path.
//
// A triple's ordinal is its position in the out arena, i.e. in the
// (S, P, O) order of the whole index; EdgeSet keeps one bit per ordinal.
//
// The index is immutable; Graph.Add accumulates in the mutable delta
// side-index (delta.go) instead, and Compact rebuilds this index with the
// delta folded in.
type csrIndex struct {
	outRuns   runIndex // subject -> its run of outArena
	inRuns    runIndex // object -> its run of inArena
	predRuns  runIndex // predicate -> its run of predArena
	outArena  []Pair   // grouped by S, each group (P, O) sorted
	inArena   []Pair   // grouped by O, each group (P, S) sorted
	predArena []Pair   // grouped by P ascending, each group (S, O) sorted

	preds []ID // distinct predicates, ascending
}

// runIndex says where in an arena each ID's run lies, in space that grows
// with the IDs that have one rather than with the ID space: a bitmap over
// the IDs up to the largest with a run (a rankWord per 64, two bits an
// ID), and the run bounds of only the IDs whose bit is set, in ID order.
// The zero value has no runs.
type runIndex struct {
	words []rankWord
	off   []uint32 // arena[off[k]:off[k+1]] is the run of the k-th smallest ID with one
}

// rankWord is 64 IDs' worth of bitmap beside the number of set bits in
// the words before it, so that a lookup reads the two from one cache line.
type rankWord struct {
	bits uint64
	rank uint32
}

// newRunIndex compacts a dense offset table (ID v's run is
// arena[dense[v]:dense[v+1]]) down to the IDs whose run is not empty.
func newRunIndex(dense []uint32) runIndex {
	runs, last := 0, -1
	for v := 0; v+1 < len(dense); v++ {
		if dense[v+1] > dense[v] {
			runs, last = runs+1, v
		}
	}
	if runs == 0 {
		return runIndex{}
	}
	x := runIndex{words: make([]rankWord, last>>6+1), off: make([]uint32, 0, runs+1)}
	for v := 0; v <= last; v++ {
		if v&63 == 0 {
			x.words[v>>6].rank = uint32(len(x.off))
		}
		if dense[v+1] > dense[v] {
			x.words[v>>6].bits |= 1 << (v & 63)
			x.off = append(x.off, dense[v])
		}
	}
	x.off = append(x.off, dense[last+1])
	return x
}

// run returns the bounds of v's run; of an empty one if v has none.
func (x *runIndex) run(v ID) (lo, hi uint32) {
	if w := v >> 6; w < ID(len(x.words)) {
		// v's bit moved to the top: the sign says whether v has a run, and
		// the ones counted are v and the IDs of the word below it.
		if s := x.words[w].bits << (63 - v&63); int64(s) < 0 {
			k := x.words[w].rank + uint32(bits.OnesCount64(s))
			return x.off[k-1], x.off[k]
		}
	}
	return 0, 0
}

// keys yields, ascending, the IDs that have a run in x or in y.
func keys(x, y runIndex) iter.Seq[ID] {
	return func(yield func(ID) bool) {
		for w := 0; w < max(len(x.words), len(y.words)); w++ {
			var b uint64
			if w < len(x.words) {
				b = x.words[w].bits
			}
			if w < len(y.words) {
				b |= y.words[w].bits
			}
			for ; b != 0; b &= b - 1 {
				if !yield(ID(w<<6 + bits.TrailingZeros64(b))) {
					return
				}
			}
		}
	}
}

// buildCSR compiles a list of distinct triples in (S, P, O) order, which
// is the out arena. The other two arenas are two stable counting passes:
// grouping the (S, P, O) list by P leaves each predicate's run in (S, O)
// order, the predicate arena; grouping that by O leaves each object's run
// in (P, S) order, the in arena. Each grouping counts into one dense table
// over the ID space, which lives only until buildCSR returns: what the
// index keeps of it is a runIndex. spo is only read, and not kept.
func buildCSR(spo []Triple) *csrIndex {
	n := 0
	for _, t := range spo {
		n = max(n, int(t.S)+1, int(t.P)+1, int(t.O)+1)
	}
	c := &csrIndex{
		outArena:  make([]Pair, len(spo)),
		inArena:   make([]Pair, len(spo)),
		predArena: make([]Pair, len(spo)),
	}
	// dense is each grouping's offset table in turn, and then, a group's
	// entry moving up as the group fills, where its next member goes.
	dense := make([]uint32, n+1)
	for i, t := range spo {
		c.outArena[i] = Pair{t.P, t.O}
		dense[t.S+1]++
	}
	prefixSum(dense)
	c.outRuns = newRunIndex(dense)

	clear(dense)
	for _, t := range spo {
		dense[t.P+1]++
	}
	prefixSum(dense)
	c.predRuns = newRunIndex(dense)
	for _, t := range spo {
		c.predArena[dense[t.P]] = Pair{t.S, t.O}
		dense[t.P]++
	}
	c.preds = slices.Collect(keys(c.predRuns, runIndex{}))

	clear(dense)
	for _, t := range spo {
		dense[t.O+1]++
	}
	prefixSum(dense)
	c.inRuns = newRunIndex(dense)
	for _, p := range c.preds {
		for _, so := range c.pred(p) {
			c.inArena[dense[so.B]] = Pair{p, so.A}
			dense[so.B]++
		}
	}
	return c
}

// CompareSPO orders triples by (S, P, O): the out arena's order, and the
// order an EdgeSet lists its triples in.
func CompareSPO(a, b Triple) int {
	switch {
	case a.S != b.S:
		return int(a.S) - int(b.S)
	case a.P != b.P:
		return int(a.P) - int(b.P)
	default:
		return int(a.O) - int(b.O)
	}
}

func prefixSum(off []uint32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// out returns vertex v's run of the out arena (empty if v is unknown).
func (c *csrIndex) out(v ID) []Pair {
	lo, hi := c.outRuns.run(v)
	return c.outArena[lo:hi]
}

// in returns vertex v's run of the in arena.
func (c *csrIndex) in(v ID) []Pair {
	lo, hi := c.inRuns.run(v)
	return c.inArena[lo:hi]
}

// pred returns predicate p's run of the predicate arena.
func (c *csrIndex) pred(p ID) []Pair {
	lo, hi := c.predRuns.run(p)
	return c.predArena[lo:hi]
}

// ordinal returns t's position in the out arena, if the index holds t.
func (c *csrIndex) ordinal(t Triple) (int, bool) {
	lo, hi := c.outRuns.run(t.S)
	i, ok := searchPairs(c.outArena[lo:hi], Pair{t.P, t.O})
	return int(lo) + i, ok
}
