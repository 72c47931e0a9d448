package rdf

import "slices"

// csrIndex is the frozen storage engine: the graph compiled into
// compressed-sparse-row form. Adjacency lives in two flat []HalfEdge
// arenas (outgoing grouped by subject, incoming grouped by object), each
// vertex's run sorted by (P, Other) so a constant-predicate lookup on a
// bound endpoint is a binary search to a contiguous sub-run instead of a
// full adjacency scan. Triples additionally live in a per-predicate arena
// sorted by (P, S, O), replacing the byPred map. All lookups return
// subslices of the arenas: zero allocations on the match/join hot path.
//
// A triple's ordinal is its position in the out arena, i.e. in the
// (S, P, O) order of the whole index; EdgeSet keeps one bit per ordinal.
//
// The index is immutable; Graph.Add on a frozen graph accumulates in the
// mutable delta side-index (delta.go) instead, and Compact rebuilds this
// index with the delta folded in.
type csrIndex struct {
	n int // ID-space bound: every S/P/O in the graph is < n

	outOff    []uint32   // len n+1; outArena[outOff[v]:outOff[v+1]] = out-edges of v
	inOff     []uint32   // len n+1; inArena[inOff[v]:inOff[v+1]] = in-edges of v
	predOff   []uint32   // len n+1; predArena[predOff[p]:predOff[p+1]] = triples labelled p
	outArena  []HalfEdge // grouped by S, each group sorted by (P, Other)
	inArena   []HalfEdge // grouped by O, each group sorted by (P, Other)
	predArena []Triple   // sorted by (P, S, O)

	preds []ID // distinct predicates, ascending
	verts []ID // distinct vertices (subjects ∪ objects), ascending
}

// buildCSR compiles a list of distinct triples. The list is sorted once,
// to (S, P, O) — not even that when it arrives sorted, as a matched edge
// set's triples do — which is the out arena. The other two arenas are two
// stable counting passes over the offset tables: grouping the (S, P, O)
// list by P leaves each predicate's run in (S, O) order, the predicate
// arena; grouping that by O leaves each object's run in (P, S) order, the
// in arena. order is only read.
func buildCSR(order []Triple) *csrIndex {
	n := 0
	for _, t := range order {
		n = max(n, int(t.S)+1, int(t.P)+1, int(t.O)+1)
	}
	c := &csrIndex{
		n:         n,
		outOff:    make([]uint32, n+1),
		inOff:     make([]uint32, n+1),
		predOff:   make([]uint32, n+1),
		outArena:  make([]HalfEdge, len(order)),
		inArena:   make([]HalfEdge, len(order)),
		predArena: make([]Triple, len(order)),
	}
	spo := order
	if !slices.IsSortedFunc(spo, CompareSPO) {
		spo = slices.Clone(order)
		slices.SortFunc(spo, CompareSPO)
	}
	for i, t := range spo {
		c.outArena[i] = HalfEdge{P: t.P, Other: t.O}
		c.outOff[t.S+1]++
		c.predOff[t.P+1]++
		c.inOff[t.O+1]++
	}
	prefixSum(c.outOff)
	prefixSum(c.predOff)
	prefixSum(c.inOff)

	next := make([]uint32, n) // where each group's next entry goes
	copy(next, c.predOff)
	for _, t := range spo {
		c.predArena[next[t.P]] = t
		next[t.P]++
	}
	copy(next, c.inOff)
	for _, t := range c.predArena {
		c.inArena[next[t.O]] = HalfEdge{P: t.P, Other: t.S}
		next[t.O]++
	}

	for v := 0; v < n; v++ {
		if c.outOff[v+1] > c.outOff[v] || c.inOff[v+1] > c.inOff[v] {
			c.verts = append(c.verts, ID(v))
		}
		if c.predOff[v+1] > c.predOff[v] {
			c.preds = append(c.preds, ID(v))
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
func (c *csrIndex) out(v ID) []HalfEdge {
	if int(v) >= c.n {
		return nil
	}
	return c.outArena[c.outOff[v]:c.outOff[v+1]]
}

// in returns vertex v's run of the in arena.
func (c *csrIndex) in(v ID) []HalfEdge {
	if int(v) >= c.n {
		return nil
	}
	return c.inArena[c.inOff[v]:c.inOff[v+1]]
}

// pred returns predicate p's run of the triple arena.
func (c *csrIndex) pred(p ID) []Triple {
	if int(p) >= c.n {
		return nil
	}
	return c.predArena[c.predOff[p]:c.predOff[p+1]]
}

// predRange narrows a (P, Other)-sorted adjacency run to the contiguous
// sub-run labelled p.
func predRange(hs []HalfEdge, p ID) []HalfEdge {
	lo, hi := predBounds(hs, p)
	return hs[lo:hi]
}

// predBounds returns the bounds of predRange's sub-run via two hand-rolled
// binary searches (no closures, so the hot path stays allocation-free).
func predBounds(hs []HalfEdge, p ID) (start, end int) {
	lo, hi := 0, len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hs[mid].P < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start = lo
	hi = len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hs[mid].P <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return start, lo
}

// ordinal returns t's position in the out arena, if the index holds t.
func (c *csrIndex) ordinal(t Triple) (int, bool) {
	if int(t.S) >= c.n {
		return 0, false
	}
	base := int(c.outOff[t.S])
	run := c.outArena[base:c.outOff[t.S+1]]
	lo, hi := predBounds(run, t.P)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid].Other < t.O {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(run) || run[lo] != (HalfEdge{P: t.P, Other: t.O}) {
		return 0, false
	}
	return base + lo, true
}
