package cluster

// The control-site join of Section 7.3 — HashJoin here, JoinStream in
// stream.go — and the one table both index a side's rows with, which
// adopts the arrays the rows arrived in and never copies a row.

import (
	"math/bits"
	"slices"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// joinGeom is one join's resolved column geometry, shared by HashJoin and
// JoinStream.
type joinGeom struct {
	lkey, rkey []int // the shared variables' columns in left and right rows
	rightOnly  []int // right's columns that left does not have
	lw, rw     int   // input row widths
	width      int   // output row width
	outVars    []string
}

// newJoinGeom aligns two variable lists: lkey[i] and rkey[i] hold the same
// variable, and the output is left's variables followed by right's other
// ones.
func newJoinGeom(leftVars, rightVars []string) *joinGeom {
	j := &joinGeom{lw: len(leftVars), rw: len(rightVars), outVars: slices.Clone(leftVars)}
	for r, v := range rightVars {
		if l := slices.Index(leftVars, v); l >= 0 {
			j.lkey, j.rkey = append(j.lkey, l), append(j.rkey, r)
		} else {
			j.rightOnly, j.outVars = append(j.rightOnly, r), append(j.outVars, v)
		}
	}
	j.width = len(j.outVars)
	return j
}

// JoinVars returns the output column layout of a join of two binding
// tables or streams: left's variables followed by right's non-shared
// variables.
func JoinVars(leftVars, rightVars []string) []string {
	return newJoinGeom(leftVars, rightVars).outVars
}

// HashJoin joins two binding tables on their shared variables, the
// control-site join of Section 7.3: index the right rows, probe the left
// rows in order, emit each left row's matches in the order right holds
// them. With no shared variables every pair matches — the nested-loop
// Cartesian product in the same order. Output columns follow JoinVars.
func HashJoin(left, right *match.Bindings) *match.Bindings {
	j := newJoinGeom(left.Vars, right.Vars)
	ln, rn := left.Len(), right.Len()
	if ln == 0 || rn == 0 {
		return match.NewBindings(j.outVars, nil, 0)
	}
	tab := newJoinTable(j.rw, j.rkey, rn)
	tab.adopt(right.Rows, rn)
	// Counting pass: probing twice is far cheaper than growing the output
	// through repeated reallocation.
	total := 0
	for i := 0; i < ln; i++ {
		total += int(tab.lookup(left.Rows[i*j.lw:(i+1)*j.lw], j.lkey).n)
	}
	if total == 0 {
		return match.NewBindings(j.outVars, nil, 0)
	}
	rows := make([]rdf.ID, total*j.width)
	at := 0
	for i := 0; i < ln; i++ {
		lr := left.Rows[i*j.lw : (i+1)*j.lw]
		c := tab.lookup(lr, j.lkey)
		// The chain runs from its newest row back: fill this left row's
		// outputs from the last to the first.
		for ri, k := c.newest, int(c.n); k > 0; ri, k = tab.older(ri), k-1 {
			mergeRow(rows[(at+k-1)*j.width:(at+k)*j.width], j, lr, tab.at(ri))
		}
		at += int(c.n)
	}
	return match.NewBindings(j.outVars, rows, total)
}

// FNV-1a parameters for join keys.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKey hashes a row's join key: FNV-1a over its values in the columns
// cols, which name the same variables in the same order on either side of
// a join, so matching rows hash alike at any key width. It reads the
// columns in place and never allocates.
func hashKey(row []rdf.ID, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h ^= uint64(row[c])
		h *= fnvPrime64
	}
	return h
}

// A row reference is 32 bits: the chunk in the high ones, the row within
// the chunk in the low chunkBits. A chunk is at most chunkRows rows —
// DefaultBatchSize, so a site's full batch is one chunk — and a wider
// batch or block is adopted as several chunks over sub-slices of its
// array. One side of a join therefore holds at most maxChunks chunks:
// 2^24 batches, or 2^32 rows in full chunks. refOf panics rather than let
// a reference wrap onto another row.
const (
	chunkBits = 8
	chunkRows = 1 << chunkBits
	maxChunks = 1 << (32 - chunkBits)
)

// refOf returns the reference of row off of chunk c.
func refOf(c, off int) uint32 {
	if c >= maxChunks {
		panic("cluster: a join side holds more than maxChunks chunks of rows")
	}
	return uint32(c)<<chunkBits | uint32(off)
}

// chain is the list of rows stored under one join key: newest is the
// reference of the last one added, n its length. Walk it towards the
// first with
//
//	for r, k := c.newest, c.n; k > 0; r, k = t.older(r), k-1
type chain struct{ newest, n uint32 }

// storeChunk is one chunk of a joinTable's rows: the rows back to back,
// where the batch that brought them put them, and for each the reference
// of the row before it in its chain.
type storeChunk struct {
	rows []rdf.ID
	prev []uint32
}

// joinTable is one side of a join: its w-wide rows, read in place in the
// arrays of the batches that brought them, and an open-addressed table of
// row references over them. A slot holds the chain of one join key, whose
// value is read in place from the chain's newest row — no key is ever
// materialized, at any key width. The slots double when three quarters
// full, which re-places one reference per distinct key.
type joinTable struct {
	w      int
	cols   []int // the join key's columns in this side's rows
	chunks []storeChunk
	slots  []chain // n == 0: free
	keys   int     // occupied slots
	shift  uint    // 64 - log2(len(slots))
}

// newJoinTable returns an empty table over w-wide rows keyed by cols, its
// slots sized for n distinct keys.
func newJoinTable(w int, cols []int, n int) *joinTable {
	t := &joinTable{w: w, cols: cols}
	t.resize(max(8, 1<<bits.Len(uint(n+n/2))))
	return t
}

// adopt takes the n w-wide rows in rows as the table's next rows and links
// each to the end of its key's chain. The rows are not copied: the table
// reads them where they are until it is dropped, so nobody may write to
// the array after handing it over (see BatchSink).
func (t *joinTable) adopt(rows []rdf.ID, n int) {
	prev := make([]uint32, n)
	for lo := 0; lo < n; lo += chunkRows {
		hi := min(lo+chunkRows, n)
		base := refOf(len(t.chunks), 0)
		t.chunks = append(t.chunks, storeChunk{rows: rows[lo*t.w : hi*t.w], prev: prev[lo:hi]})
		for i := lo; i < hi; i++ {
			t.link(rows[i*t.w:(i+1)*t.w], base|uint32(i-lo))
		}
	}
}

func (t *joinTable) at(r uint32) []rdf.ID {
	off := int(r & (chunkRows - 1))
	return t.chunks[r>>chunkBits].rows[off*t.w : (off+1)*t.w]
}

// older returns the reference of the row before row r in its chain.
func (t *joinTable) older(r uint32) uint32 {
	return t.chunks[r>>chunkBits].prev[r&(chunkRows-1)]
}

func (t *joinTable) resize(slots int) {
	old := t.slots
	t.slots, t.shift = make([]chain, slots), uint(64-bits.Len(uint(slots))+1)
	for _, c := range old {
		if c.n > 0 {
			*t.find(t.at(c.newest), t.cols) = c
		}
	}
}

// find returns the slot of the key that row holds in the columns cols:
// the key's chain, or the free slot where it would start.
func (t *joinTable) find(row []rdf.ID, cols []int) *chain {
	// The slot is the hash's top bits, which FNV-1a leaves nearly constant
	// over small IDs (a 20 000-key table of consecutive IDs without the
	// multiply probes linearly through all of them); the multiply folds
	// every lower bit into the top ones.
	for i := (hashKey(row, cols) * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & uint64(len(t.slots)-1) {
		c := &t.slots[i]
		if c.n == 0 {
			return c
		}
		have, same := t.at(c.newest), true
		for k, col := range cols {
			if row[col] != have[t.cols[k]] {
				same = false
				break
			}
		}
		if same {
			return c
		}
	}
}

// link ends its key's chain with row, whose reference is r.
func (t *joinTable) link(row []rdf.ID, r uint32) {
	if (t.keys+1)*4 > len(t.slots)*3 {
		t.resize(2 * len(t.slots))
	}
	c := t.find(row, t.cols)
	if c.n == 0 {
		t.keys++
	}
	t.chunks[r>>chunkBits].prev[r&(chunkRows-1)] = c.newest
	c.newest, c.n = r, c.n+1
}

// lookup returns the chain of the rows whose key is what row, a row of the
// other side, holds in its own key columns cols; the zero chain when there
// is none.
func (t *joinTable) lookup(row []rdf.ID, cols []int) chain { return *t.find(row, cols) }

// mergeRow writes the join of a left row and a right row — left's columns,
// then right's columns not shared with left — into out, j.width wide.
func mergeRow(out []rdf.ID, j *joinGeom, lr, rr []rdf.ID) {
	copy(out, lr)
	for i, idx := range j.rightOnly {
		out[j.lw+i] = rr[idx]
	}
}

// Union merges binding tables with identical variable sets, deduplicating
// rows; used when a subquery is evaluated on several fragments or sites.
func Union(bs ...*match.Bindings) *match.Bindings {
	var out *match.Bindings
	for _, b := range bs {
		if b == nil {
			continue
		}
		if out == nil {
			out = &match.Bindings{Vars: b.Vars}
		}
		out.Rows = append(out.Rows, b.Rows...)
		out.Nullary += b.Nullary
	}
	if out == nil {
		return &match.Bindings{}
	}
	out.Dedup()
	return out
}

// Project keeps only the named columns, deduplicating rows. Variables not
// present in the table are ignored.
func Project(b *match.Bindings, vars []string) *match.Bindings {
	if len(vars) == 0 {
		return b
	}
	var idx []int
	var kept []string
	pos := make(map[string]int, len(b.Vars))
	for i, v := range b.Vars {
		pos[v] = i
	}
	for _, v := range vars {
		if i, ok := pos[v]; ok {
			idx = append(idx, i)
			kept = append(kept, v)
		}
	}
	n, w := b.Len(), len(b.Vars)
	out := match.NewBindings(kept, make([]rdf.ID, 0, n*len(idx)), n)
	for r := 0; r < n; r++ {
		for _, j := range idx {
			out.Rows = append(out.Rows, b.Rows[r*w+j])
		}
	}
	out.Dedup()
	return out
}
