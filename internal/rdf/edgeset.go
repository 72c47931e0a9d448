package rdf

import (
	"math/bits"
	"slices"
)

// EdgeSet is a set of triples visible in one Snapshot: one bit per
// ordinal of the pinned CSR generation, plus a sorted list of the members
// that generation does not hold, the delta's. Adding a triple of the base
// costs a binary search and no memory, however often it is added — which
// is what lets the matcher record the edges of 10⁵ matches of a pattern
// in |E|/64 words. Not safe for concurrent use.
type EdgeSet struct {
	s     *Snapshot
	bits  []uint64
	extra []Triple // delta members, without an ordinal; sorted and distinct up to clean
	clean int
}

// NewEdgeSet returns an empty set of this snapshot's triples.
func (s *Snapshot) NewEdgeSet() *EdgeSet {
	return &EdgeSet{s: s, bits: make([]uint64, (len(s.gen.csr.outArena)+63)/64)}
}

// Of reports whether the set was taken over the same cut of the same
// graph as s, so that its triples are exactly what s would show.
func (e *EdgeSet) Of(s *Snapshot) bool {
	return e.s.g == s.g && e.s.gen == s.gen && e.s.n == s.n
}

// Add puts t, a triple visible in the set's snapshot, into the set.
func (e *EdgeSet) Add(t Triple) {
	if i, ok := e.s.Ordinal(t); ok {
		e.bits[i>>6] |= 1 << (i & 63)
		return
	}
	e.extra = append(e.extra, t)
	// Keep the list within twice its distinct size: a pattern can match
	// the same few delta triples many thousands of times.
	if len(e.extra) >= max(1024, 2*e.clean) {
		e.normalize()
	}
}

// AddOut puts into the set the triples (sub, p, o) for which keep(o)
// holds. It walks sub's run of triples labelled p once and sets each
// triple kept by its position in the run, with no search of its own, so
// it needs a set over a compacted snapshot (Snapshot.Compacted), whose
// runs are the CSR generation's; over any other it panics.
func (e *EdgeSet) AddOut(sub, p ID, keep func(o ID) bool) {
	if !e.s.Compacted() {
		panic("rdf: EdgeSet.AddOut over a snapshot with a delta")
	}
	csr := e.s.gen.csr
	lo, hi := csr.outRuns.run(sub)
	from, to := predBounds(csr.outArena[lo:hi], p)
	for j := int(lo) + from; j < int(lo)+to; j++ {
		if keep(csr.outArena[j].B) {
			e.bits[j>>6] |= 1 << (j & 63)
		}
	}
}

func (e *EdgeSet) normalize() {
	if e.clean == len(e.extra) {
		return
	}
	slices.SortFunc(e.extra, CompareSPO)
	e.extra = slices.Compact(e.extra)
	e.clean = len(e.extra)
}

// Clone returns a set of its own with e's members, over e's snapshot.
func (e *EdgeSet) Clone() *EdgeSet {
	return &EdgeSet{s: e.s, bits: slices.Clone(e.bits), extra: slices.Clone(e.extra), clean: e.clean}
}

// Union adds every member of o, a set over the same snapshot.
func (e *EdgeSet) Union(o *EdgeSet) {
	for i, w := range o.bits {
		e.bits[i] |= w
	}
	e.extra = append(e.extra, o.extra...)
}

// Len returns the number of triples in the set.
func (e *EdgeSet) Len() int {
	e.normalize()
	n := len(e.extra)
	for _, w := range e.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Triples lists the set in (S, P, O) order, in a slice the caller owns.
func (e *EdgeSet) Triples() []Triple {
	out := make([]Triple, 0, e.Len())
	extra := e.extra
	// The subjects are the IDs with an out run, ascending, and their runs
	// in that order are the ordinals: the k-th subject's lie between the
	// k-th and the next of the run bounds.
	c, k := e.s.gen.csr, 0
	for sub := range keys(c.outRuns, runIndex{}) {
		i, hi := c.outRuns.off[k], c.outRuns.off[k+1]
		for k++; i < hi; i++ {
			rest := e.bits[i>>6] >> (i & 63)
			if rest == 0 { // no member in what is left of this word
				i |= 63
				continue
			}
			if i += uint32(bits.TrailingZeros64(rest)); i >= hi {
				break
			}
			t := Triple{S: sub, P: c.outArena[i].A, O: c.outArena[i].B}
			for len(extra) > 0 && CompareSPO(extra[0], t) < 0 {
				out, extra = append(out, extra[0]), extra[1:]
			}
			out = append(out, t)
		}
	}
	return append(out, extra...)
}
