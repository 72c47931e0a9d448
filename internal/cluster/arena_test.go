package cluster

// Tests for the row-arena path: the chain table and chunked row store on
// their own, and the allocation guards that keep a binding row costing
// its bytes and nothing else through EvalStream and the streaming join.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// TestJoinTableChainsKeepInsertionOrder: a key's chain lists its rows in
// the order they were added, for packed and string keys alike, with row
// numbers that skip (unkeyable rows take a number but no entry).
func TestJoinTableChainsKeepInsertionOrder(t *testing.T) {
	for _, width := range []int{1, maxPackedCols, maxPackedCols + 1} {
		cols := make([]colPair, width)
		for i := range cols {
			cols[i] = colPair{l: i, r: i}
		}
		rng := rand.New(rand.NewSource(int64(width)))
		tab := newJoinTable(cols, 0)
		want := map[string][]int32{}
		var rows [][]rdf.ID
		for idx := int32(0); idx < 500; idx++ {
			row := make([]rdf.ID, width)
			for i := range row {
				row[i] = rdf.ID(rng.Intn(3))
			}
			rows = append(rows, row)
			if rng.Intn(5) == 0 {
				continue
			}
			tab.add(row, idx%2 == 0, idx) // cols are symmetric: either side builds the same key
			want[fmt.Sprint(row)] = append(want[fmt.Sprint(row)], idx)
		}
		for _, row := range rows {
			c := tab.lookup(row, true)
			var got []int32
			for i, k := c.head, c.n; k > 0; i, k = tab.next[i], k-1 {
				got = append(got, i)
			}
			if !slices.Equal(got, want[fmt.Sprint(row)]) {
				t.Fatalf("width %d key %v: chain %v, want %v", width, row, got, want[fmt.Sprint(row)])
			}
		}
		absent := make([]rdf.ID, width)
		absent[0] = 99
		if c := tab.lookup(absent, true); c != (chain{}) {
			t.Fatalf("width %d: absent key has chain %+v", width, c)
		}
	}
}

// TestRowStoreNeverMovesARow: rows keep their slot as the store grows
// across chunk boundaries, and at finds each one.
func TestRowStoreNeverMovesARow(t *testing.T) {
	var s rowStore
	var slots []*[]rdf.ID
	const n = 4097
	for i := 0; i < n; i++ {
		s.push([]rdf.ID{rdf.ID(i)})
		c, off := s.slot(int32(i))
		slots = append(slots, &s.chunks[c][off])
	}
	if len(s.chunks[0]) != rowStoreFirst || rowStoreFirst > 16 {
		t.Fatalf("first chunk holds %d rows, want rowStoreFirst = %d <= 16", len(s.chunks[0]), rowStoreFirst)
	}
	for i := 0; i < n; i++ {
		if got := s.at(int32(i)); len(got) != 1 || got[0] != rdf.ID(i) {
			t.Fatalf("at(%d) = %v", i, got)
		}
		c, off := s.slot(int32(i))
		if slots[i] != &s.chunks[c][off] {
			t.Fatalf("row %d moved while the store grew", i)
		}
	}
}

// TestRowArenaSizesChunksFromTheExpectedOutput: the first chunk is what
// the caller said the batch needs, later ones double up to the cap — a
// stage emitting three rows no longer pays for a 16 KiB chunk.
func TestRowArenaSizesChunksFromTheExpectedOutput(t *testing.T) {
	a := rowArena{expect: 9}
	a.alloc(3)
	if cap(a.buf) != 9 {
		t.Errorf("first chunk holds %d IDs, want the 9 expected", cap(a.buf))
	}
	var caps []int
	for i := 0; i < 4000; i++ {
		if a.alloc(3); len(caps) == 0 || caps[len(caps)-1] != cap(a.buf) {
			caps = append(caps, cap(a.buf))
		}
	}
	if want := []int{9, 18, 36, 72, 144, 288, 576, 1152, 2304, rowArenaChunk, rowArenaChunk}; !slices.Equal(caps, want[:len(caps)]) || caps[len(caps)-1] != rowArenaChunk {
		t.Errorf("chunk sizes %v, want doubling from 9 to %d", caps, rowArenaChunk)
	}
	if got := (&rowArena{}).alloc(rowArenaChunk + 1); len(got) != rowArenaChunk+1 {
		t.Errorf("a row wider than the cap got %d IDs", len(got))
	}
}

// measureAllocs runs f once and reports the heap objects and bytes it
// allocated, on whichever goroutines.
func measureAllocs(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestJoinStreamAllocsPerInputRow: the streaming join of 10 000 x 10 000
// rows on one shared column allocates per batch, per chunk and per map
// growth step — never per row (it used to cost more than one allocation
// per input row: a slice per distinct key, the doubling row lists, the
// growing found slice, 300 B in all). The bytes are the output rows and
// their headers, the stores and — most of it — the two maps growing; the
// ceiling is the 179 B that measures plus 20%.
func TestJoinStreamAllocsPerInputRow(t *testing.T) {
	const n, batch = 10000, 256
	lv, rv := []string{"x", "y"}, []string{"y", "z"}
	mk := func(shift int) [][]rdf.ID {
		flat := make([]rdf.ID, 2*n)
		rows := make([][]rdf.ID, n)
		for i := range rows {
			rows[i] = flat[2*i : 2*i+2 : 2*i+2]
			rows[i][0], rows[i][1] = rdf.ID(i+shift), rdf.ID(i+1-shift) // y = i+1 on both sides
		}
		return rows
	}
	lrows, rrows := mk(0), mk(1)
	run := func() (objects, bytes uint64) {
		left := make(chan *match.Bindings, n/batch+1)
		right := make(chan *match.Bindings, n/batch+1)
		out := make(chan *match.Bindings, 2*(n/batch+1))
		for i := 0; i < n; i += batch {
			left <- &match.Bindings{Vars: lv, Rows: lrows[i:min(i+batch, n)]}
			right <- &match.Bindings{Vars: rv, Rows: rrows[i:min(i+batch, n)]}
		}
		close(left)
		close(right)
		objects, bytes = measureAllocs(func() { JoinStream(context.Background(), lv, rv, left, right, out) })
		joined := 0
		for b := range out {
			joined += len(b.Rows)
		}
		if joined != n {
			t.Fatalf("joined %d rows, want %d", joined, n)
		}
		return objects, bytes
	}
	run() // warm up lazily initialized runtime state
	objects, bytes := run()
	perRow, bytesPerRow := float64(objects)/(2*n), float64(bytes)/(2*n)
	t.Logf("%d allocations (%.4f per input row), %.1f B per input row", objects, perRow, bytesPerRow)
	if perRow > 0.05 {
		t.Errorf("streaming join allocates %.3f objects per input row (%d total), want <= 0.05", perRow, objects)
	}
	if bytesPerRow > 215 {
		t.Errorf("streaming join allocates %.1f B per input row, want <= 215", bytesPerRow)
	}
}

// TestEvalStreamAllocsPerBatch: past its fixed set-up, a site evaluation
// costs a further full batch its row chunk, its header slice and its
// Bindings — measured as the difference between a large and a small
// WatDiv fragment under the same query.
func TestEvalStreamAllocsPerBatch(t *testing.T) {
	eval := func(triples int) (batches int, objects uint64) {
		wd := watdiv.Generate(watdiv.Options{Triples: triples, Seed: 20160315})
		wd.Graph.Freeze()
		c := New(1, 1)
		if err := c.Place(0, 0, wd.Graph); err != nil {
			t.Fatal(err)
		}
		q := sparql.MustParse(wd.Graph.Dict, `SELECT ?u ?f ?p WHERE { ?u <wsdbm:follows> ?f . ?f <wsdbm:likes> ?p . }`)
		req := EvalRequest{SiteID: 0, FragIDs: []int{0}, Query: q, Parallelism: 1}
		run := func() {
			batches = 0
			err := c.EvalStream(context.Background(), req, DefaultBatchSize, func(b *match.Bindings) error {
				if len(b.Rows) == DefaultBatchSize {
					batches++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
		objects, _ = measureAllocs(run)
		return batches, objects
	}
	smallBatches, small := eval(4000)
	largeBatches, large := eval(40000)
	if largeBatches < smallBatches+20 {
		t.Fatalf("fragments yield %d and %d full batches; want them at least 20 apart", smallBatches, largeBatches)
	}
	perBatch := (float64(large) - float64(small)) / float64(largeBatches-smallBatches)
	t.Logf("%d batches: %d allocations, %d batches: %d — %.2f per additional batch", smallBatches, small, largeBatches, large, perBatch)
	if perBatch > 4 {
		t.Errorf("an additional %d-row batch costs %.2f allocations, want <= 4", DefaultBatchSize, perBatch)
	}
}
