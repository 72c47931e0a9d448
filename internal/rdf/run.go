package rdf

import (
	"sort"
	"sync"
)

// Pair is one entry of an index run: the two IDs of a triple that vary
// under the ID the run is kept for — (P, Other) in a vertex's adjacency,
// (S, O) among a predicate's triples. Every run is sorted by (A, B).
type Pair struct{ A, B ID }

func (a Pair) less(b Pair) bool { return a.A < b.A || a.A == b.A && a.B < b.B }

// deltaPair is one entry of a delta run: an insert or a delete of the
// pair, and the sequence number of that op (its 0-based position in the
// generation's op log). A reader pins a delta length n and treats entries
// with a sequence number >= n as invisible, so a writer appending mid-query
// never changes what a pinned reader sees.
type deltaPair struct {
	Pair
	op uint32 // sequence number << 1, low bit set for a delete
}

func (d deltaPair) seq() uint32 { return d.op >> 1 }
func (d deltaPair) del() bool   { return d.op&1 != 0 }

// Run is what a snapshot sees of one index run — a vertex's outgoing or
// incoming adjacency, or a predicate's triples: the immutable CSR run, the
// generation's delta run for the same ID, and the snapshot's bound on the
// delta's sequence numbers. Nothing is copied and nothing merged until a
// Cursor walks it. A delta run holds the ops on one key next to each
// other, oldest first, and the last of them below the bound decides: the
// key is visible after an insert, not after a delete, and as the CSR has
// it when no op is below the bound. That rule is applied in this file
// and nowhere else: to a walk in Cursor.Next, to a count in Len, to a
// probe in Has.
//
// The delta run is nil at bound 0; the walk then is the CSR run's own.
//
// A Run is seven words, too many for the compiler to keep in registers,
// and the matcher starts one per search step: handed about by value it
// cost a quarter of a query's time in copies. So a Run is filled and
// restricted in place — r.Out(s, v).Narrow(p), the destination the
// receiver and the result, as in math/big — and read through a pointer.
type Run struct {
	base  []Pair
	delta []deltaPair
	bound uint32
}

// set makes r the CSR run base with ID k's run of the delta index m, as a
// reader at delta bound n sees it.
func (r *Run) set(base []Pair, m *sync.Map, k ID, n uint32) *Run {
	r.base, r.delta, r.bound = base, nil, n
	if n > 0 {
		r.delta = loadRun(m, k)
	}
	return r
}

// settle steps over the ops on key at d[j:] and returns whether key is
// visible after those of them below bound, given whether it was before.
func settle(d []deltaPair, j int, key Pair, bound uint32, vis bool) (int, bool) {
	for ; j < len(d) && d[j].Pair == key; j++ {
		if d[j].seq() < bound {
			vis = !d[j].del()
		}
	}
	return j, vis
}

// searchPairs finds key in a sorted run: its position and true, or the
// position it would be inserted at.
func searchPairs(ps []Pair, key Pair) (int, bool) {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ps) && ps[lo] == key
}

// searchDelta returns the position of the first entry of d not below key.
func searchDelta(d []deltaPair, key Pair) int {
	return sort.Search(len(d), func(i int) bool { return !d[i].less(key) })
}

// predBounds returns the bounds of the sub-run of ps whose A is a, by two
// hand-rolled binary searches: a cursor over a constant-predicate edge
// starts with one.
func predBounds(ps []Pair, a ID) (start, end int) {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].A < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start = lo
	hi = len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].A <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return start, lo
}

// narrowDelta is predBounds for a delta run, which is short.
func narrowDelta(d []deltaPair, a ID) []deltaPair {
	lo := sort.Search(len(d), func(i int) bool { return d[i].A >= a })
	hi := lo + sort.Search(len(d)-lo, func(i int) bool { return d[lo+i].A > a })
	return d[lo:hi]
}

// Narrow keeps of r the contiguous part whose first ID is a — under a
// vertex, the edges labelled a — and returns r.
func (r *Run) Narrow(a ID) *Run {
	lo, hi := predBounds(r.base, a)
	r.base = r.base[lo:hi]
	if len(r.delta) > 0 {
		r.delta = narrowDelta(r.delta, a)
	}
	return r
}

// Only keeps of r what there is on key — the entry, if r has it — and
// returns r.
func (r *Run) Only(key Pair) *Run {
	i, found := searchPairs(r.base, key)
	r.base = r.base[i:i]
	if found {
		r.base = r.base[:1]
	}
	lo := searchDelta(r.delta, key)
	hi := lo
	for hi < len(r.delta) && r.delta[hi].Pair == key {
		hi++
	}
	r.delta = r.delta[lo:hi]
	return r
}

// BaseLen returns the length of r's CSR run, the positions Cursor.Cut
// cuts at.
func (r *Run) BaseLen() int { return len(r.base) }

// has reports whether key is visible in r.
func (r *Run) has(key Pair) bool {
	_, vis := searchPairs(r.base, key)
	_, vis = settle(r.delta, searchDelta(r.delta, key), key, r.bound, vis)
	return vis
}

// Len counts the visible entries of r without walking the CSR run: its
// length, adjusted per key the delta settles otherwise. A key's ops
// alternate — the writer adds only what is absent and deletes only what
// is present — so the CSR holds the key if and only if the first of them
// is a delete. O(|delta|) and allocation-free, so the exact degrees the
// matcher orders edges by stay cheap while updates are pending.
func (r *Run) Len() int {
	n := len(r.base)
	for j := 0; j < len(r.delta); {
		inBase, vis := r.delta[j].del(), false
		j, vis = settle(r.delta, j, r.delta[j].Pair, r.bound, inBase)
		if vis && !inBase {
			n++
		} else if !vis && inBase {
			n--
		}
	}
	return n
}

// Cursor walks a Run in (A, B) order: exactly the sequence a CSR rebuilt
// from the visible triples would hold. Cursor{Run: r} is at the start of
// r. It is a value for the caller's stack; a walk allocates nothing.
type Cursor struct {
	Run
	i, j int // positions in base and delta
}

// Cut keeps of c's run, and puts c at the start of, the part between CSR
// positions lo < hi (or, as Cut(0, 0), all of a run that has no CSR run):
// those entries of the CSR run, and the delta entries that sort from the
// one at lo up to the one at hi — from the start when lo is 0, to the end
// when hi is BaseLen(). The parts between consecutive positions therefore
// concatenate to the run, which is how a root run is dealt out in
// morsels. The ops on one key compare equal and a cut is a binary search
// for a CSR key, so they all fall on one side of it: every part settles
// its own keys.
func (c *Cursor) Cut(lo, hi int) {
	if hi < len(c.base) {
		c.delta = c.delta[:searchDelta(c.delta, c.base[hi])]
	}
	if lo > 0 {
		c.delta = c.delta[searchDelta(c.delta, c.base[lo]):]
	}
	c.base, c.i, c.j = c.base[lo:hi], 0, 0
}

// Next returns the next visible entry, or false when the run is exhausted.
// It takes the smallest key off the front of the two runs — the CSR's,
// then visible unless the delta says otherwise, or one only the delta
// knows — and emits it if its ops leave it visible.
func (c *Cursor) Next() (Pair, bool) {
	base, delta := c.base, c.delta
	for c.i < len(base) || c.j < len(delta) {
		var key Pair
		vis := c.j == len(delta) || c.i < len(base) && !delta[c.j].less(base[c.i])
		if vis {
			key = base[c.i]
			c.i++
		} else {
			key = delta[c.j].Pair
		}
		if c.j, vis = settle(delta, c.j, key, c.bound, vis); vis {
			return key, true
		}
	}
	return Pair{}, false
}
