package cluster

import (
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// HashJoin joins two binding tables on their shared variables, the
// control-site join of Section 7.3. With no shared variables it degrades
// to a Cartesian product. Output columns are left's variables followed by
// right's non-shared variables. It is the single-partition case of
// HashJoinOpts (see partition.go), sharing the same ordered join core.
func HashJoin(left, right *match.Bindings) *match.Bindings {
	return HashJoinOpts(left, right, JoinOptions{})
}

// colPair pairs the positions of one shared variable in both tables.
type colPair struct{ l, r int }

// alignVars returns (shared pairs of column indices, right-only columns).
func alignVars(lv, rv []string) (shared []colPair, rightOnly []int) {
	pos := make(map[string]int, len(lv))
	for i, v := range lv {
		pos[v] = i
	}
	for j, v := range rv {
		if i, ok := pos[v]; ok {
			shared = append(shared, colPair{i, j})
		} else {
			rightOnly = append(rightOnly, j)
		}
	}
	return
}

func names(vars []string, idx []int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = vars[j]
	}
	return out
}

// maxPackedCols is how many shared join columns fit the fixed-size packed
// key. SPARQL joins share one or two variables in practice; wider joins
// fall back to string keys.
const maxPackedCols = 4

// packedKey is a comparable join key: the shared column values, unused
// slots zero. All keys of one join have the same column count, so uniform
// padding cannot introduce false matches.
type packedKey [maxPackedCols]rdf.ID

// chain is the list of row numbers stored under one join key, in
// insertion order: head and tail index joinTable.next, n is its length.
type chain struct{ head, tail, n int32 }

// joinTable indexes row numbers by their shared-column join key. Keys are
// packed value arrays — no per-row string materialization — unless the
// join is wider than maxPackedCols columns. Rows under one key are
// threaded through the one flat next table (next[i] is the row after row
// i), so a key costs its map entry and a row four bytes, never a slice of
// its own. Walk a chain c with
//
//	for i, k := c.head, c.n; k > 0; i, k = t.next[i], k-1
type joinTable struct {
	cols   []colPair
	packed map[packedKey]chain
	str    map[string]chain
	next   []int32
}

func newJoinTable(cols []colPair, sizeHint int) *joinTable {
	t := &joinTable{cols: cols, next: make([]int32, sizeHint)}
	if len(cols) <= maxPackedCols {
		t.packed = make(map[packedKey]chain, sizeHint)
	} else {
		t.str = make(map[string]chain, sizeHint)
	}
	return t
}

// packKey builds the packed key of row; left selects which side of the
// column pairs row belongs to. It never allocates.
func packKey(row []rdf.ID, cols []colPair, left bool) packedKey {
	var k packedKey
	for i, c := range cols {
		if left {
			k[i] = row[c.l]
		} else {
			k[i] = row[c.r]
		}
	}
	return k
}

// stringKey is the fallback key for joins wider than maxPackedCols.
func stringKey(row []rdf.ID, cols []colPair, left bool) string {
	b := make([]byte, 0, len(cols)*4)
	for _, c := range cols {
		var v rdf.ID
		if left {
			v = row[c.l]
		} else {
			v = row[c.r]
		}
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// add records row idx at the end of its join key's chain; left names
// row's side. Row numbers only ever grow.
func (t *joinTable) add(row []rdf.ID, left bool, idx int32) {
	// Not append(next, make(...)...): under -race that allocates per call.
	for int(idx) >= len(t.next) {
		t.next = append(t.next, 0)
	}
	if t.packed != nil {
		k := packKey(row, t.cols, left)
		t.packed[k] = t.link(t.packed[k], idx)
	} else {
		k := stringKey(row, t.cols, left)
		t.str[k] = t.link(t.str[k], idx)
	}
}

func (t *joinTable) link(c chain, idx int32) chain {
	if c.n == 0 {
		return chain{head: idx, tail: idx, n: 1}
	}
	t.next[c.tail] = idx
	return chain{head: c.head, tail: idx, n: c.n + 1}
}

// lookup returns the chain of rows whose key matches row (from the side
// named by left); the zero chain when there is none.
func (t *joinTable) lookup(row []rdf.ID, left bool) chain {
	if t.packed != nil {
		return t.packed[packKey(row, t.cols, left)]
	}
	return t.str[stringKey(row, t.cols, left)]
}

// rowArena carves fixed-width binding rows out of chunked backing arrays,
// cutting the join's one-allocation-per-output-row cost to one allocation
// per chunk. Carved rows are capped (three-index slices), so a consumer
// appending to one cannot stomp its neighbour. Rows are handed off to
// consumers and the arena only ever starts fresh chunks — it is never
// reset — so handed-off rows stay valid for as long as the consumer keeps
// them. A chunk is as large as the caller said it expects to carve, or
// twice the previous chunk, up to rowArenaChunk: a stage that emits three
// rows pays for three.
type rowArena struct {
	buf    []rdf.ID
	expect int // IDs the caller is about to carve: the next chunk's floor
}

// rowArenaChunk caps a chunk's size in IDs (16 KiB chunks).
const rowArenaChunk = 4096

// presizedArena returns an arena whose first chunk holds exactly rows
// fixed-width rows, so a join with a known output size allocates row
// storage once.
func presizedArena(rows, width int) *rowArena {
	return &rowArena{buf: make([]rdf.ID, 0, rows*width)}
}

func (a *rowArena) alloc(n int) []rdf.ID {
	if n == 0 {
		return nil
	}
	if len(a.buf)+n > cap(a.buf) {
		size := min(max(a.expect, 2*cap(a.buf)), rowArenaChunk)
		a.buf = make([]rdf.ID, 0, max(size, n))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}

// mergeRows concatenates a left row with the right-only columns of a
// right row, carving the output from the arena. Every output row is
// exactly j.width wide: well-formed rows take the branch-light fast
// path (small enough to inline into the per-output-row emit loops),
// ragged rows (shorter or longer than their table's width) divert to
// mergeRowsRagged, which pads missing columns with NoID instead of
// corrupting or panicking.
func mergeRows(a *rowArena, j *joinGeom, lr, rr []rdf.ID) []rdf.ID {
	if len(lr) < j.lw || len(rr) <= j.maxRO {
		return mergeRowsRagged(a, j, lr, rr)
	}
	out := a.alloc(j.width)
	copy(out, lr[:j.lw])
	for i, idx := range j.rightOnly {
		out[j.lw+i] = rr[idx]
	}
	return out
}

func mergeRowsRagged(a *rowArena, j *joinGeom, lr, rr []rdf.ID) []rdf.ID {
	out := a.alloc(j.width)
	n := copy(out[:j.lw], lr)
	for i := n; i < j.lw; i++ {
		out[i] = rdf.NoID
	}
	for i, idx := range j.rightOnly {
		if idx < len(rr) {
			out[j.lw+i] = rr[idx]
		} else {
			out[j.lw+i] = rdf.NoID
		}
	}
	return out
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
	out := &match.Bindings{Vars: kept}
	var arena rowArena
	for _, r := range b.Rows {
		row := arena.alloc(len(idx))
		for i, j := range idx {
			row[i] = r[j]
		}
		out.Rows = append(out.Rows, row)
	}
	out.Dedup()
	return out
}
