package cluster

// Tests for the flat-table path: the chain table and the chunks it adopts
// on their own, and the allocation guards that keep a binding row costing
// its bytes and nothing else through EvalStream and the streaming join.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// adoptSizes are batch sizes on both sides of the chunk geometry: narrower
// than a chunk, exactly one and several chunks wide, and empty.
var adoptSizes = []int{1, 3, chunkRows - 1, chunkRows, 0, chunkRows + 1, 3*chunkRows + 7, 17}

// TestJoinTableChainsKeepInsertionOrder: a key's chain lists its rows in
// the order they were adopted — walked from the newest reference back,
// each reference naming the chunk and offset its batch put the row at —
// at every key width, a five-column key included, across batches of
// every size in adoptSizes and through many doublings of the slot table;
// the key is probed from the other side's column order.
func TestJoinTableChainsKeepInsertionOrder(t *testing.T) {
	for _, width := range []int{0, 1, 4, 5} {
		cols, otherCols := make([]int, width), make([]int, width)
		for i := range cols {
			cols[i], otherCols[i] = i, width-1-i
		}
		rng := rand.New(rand.NewSource(int64(width)))
		tab := newJoinTable(width, cols, 0)
		want := map[string][]uint32{}
		var rows [][]rdf.ID
		for _, n := range adoptSizes {
			batch := make([]rdf.ID, n*width)
			for i := range batch {
				batch[i] = rdf.ID(rng.Intn(3))
			}
			first := len(tab.chunks)
			tab.adopt(batch, n)
			for i := range n {
				row := batch[i*width : (i+1)*width]
				rows = append(rows, row)
				want[fmt.Sprint(row)] = append(want[fmt.Sprint(row)], refOf(first+i/chunkRows, i%chunkRows))
			}
		}
		for _, row := range rows {
			probe := slices.Clone(row)
			slices.Reverse(probe)
			c := tab.lookup(probe, otherCols)
			var got []uint32
			for r, k := c.newest, c.n; k > 0; r, k = tab.older(r), k-1 {
				if !slices.Equal(tab.at(r), row) {
					t.Fatalf("width %d key %v: chain reaches row %v", width, row, tab.at(r))
				}
				got = append(got, r)
			}
			slices.Reverse(got)
			if !slices.Equal(got, want[fmt.Sprint(row)]) {
				t.Fatalf("width %d key %v: chain %v, want %v", width, row, got, want[fmt.Sprint(row)])
			}
		}
		if width == 0 {
			continue
		}
		absent := make([]rdf.ID, width)
		absent[0] = 99
		if c := tab.lookup(absent, cols); c != (chain{}) {
			t.Fatalf("width %d: absent key has chain %+v", width, c)
		}
	}
}

// TestAdoptedRowIsReadWhereItsBatchPutIt: a table reads each row in the
// array of the batch that brought it — the same memory, not a copy —
// whether the batch is narrower than a chunk, one chunk wide or several
// (a block cut into chunks over sub-slices of its array), and still there
// after later batches; a batch takes one chunk per chunkRows rows.
func TestAdoptedRowIsReadWhereItsBatchPutIt(t *testing.T) {
	tab := newJoinTable(2, []int{0}, 0)
	type placed struct {
		ref uint32
		at  *rdf.ID
	}
	var rows []placed
	chunks := 0
	for _, n := range adoptSizes {
		batch := make([]rdf.ID, 2*n)
		for i := range n {
			batch[2*i], batch[2*i+1] = rdf.ID(i), rdf.ID(len(rows))
		}
		first := len(tab.chunks)
		tab.adopt(batch, n)
		chunks += (n + chunkRows - 1) / chunkRows
		for i := range n {
			rows = append(rows, placed{refOf(first+i/chunkRows, i%chunkRows), &batch[2*i]})
		}
	}
	if len(tab.chunks) != chunks {
		t.Fatalf("%d chunks, want one per started chunkRows rows of a batch: %d", len(tab.chunks), chunks)
	}
	for i, p := range rows {
		if &tab.at(p.ref)[0] != p.at {
			t.Fatalf("row %d is read away from where its batch put it", i)
		}
	}
}

// TestRowReferenceNeverWraps: the last row of the last chunk a side may
// hold takes the last 32-bit reference, and a chunk past that ceiling
// panics instead of wrapping onto chunk 0.
func TestRowReferenceNeverWraps(t *testing.T) {
	if r := refOf(maxChunks-1, chunkRows-1); r != math.MaxUint32 {
		t.Fatalf("last reference = %#x, want %#x", r, uint32(math.MaxUint32))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a reference past the chunk ceiling did not panic")
		}
	}()
	refOf(maxChunks, 0)
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

// joinInputs are the two sides of the allocation guards' join: n rows
// each on one shared column y = i+1, so every row matches exactly once,
// cut into batches of batch rows.
func joinInputs(n, batch int) (lv, rv []string, left, right []*match.Bindings) {
	lv, rv = []string{"x", "y"}, []string{"y", "z"}
	mk := func(vars []string, shift int) []*match.Bindings {
		rows := make([]rdf.ID, 2*n)
		for i := 0; i < n; i++ {
			rows[2*i], rows[2*i+1] = rdf.ID(i+shift), rdf.ID(i+1-shift)
		}
		return batchesOf(match.NewBindings(vars, rows, n), batch)
	}
	return lv, rv, mk(lv, 0), mk(rv, 1)
}

// TestJoinStreamAllocsPerInputRow: the streaming join of 10 000 x 10 000
// rows on one shared column, both inputs open until every batch is in,
// allocates per batch, per chunk and per doubling of a slot table — never
// per row, and never a copy of one (it once cost more than one allocation
// per input row and 300 B, then 179 B with a slice header per row and a
// Go map per side, then 52.3 B copying every row into a chunk store). One
// goroutine feeds the batches, alternating sides, over unbuffered
// channels, so the join takes them in that order and keeps every one
// whichever close it sees first: the figure repeats. The bytes are the
// output rows (6 B per input row), the two sides' chain links (4 B) and
// chunk lists and the two slot tables (26 B, with their doublings); one
// allocation per batch and side is its chain links. The ceilings are the
// 0.0104 objects and 37.2 B it measures plus 10%.
func TestJoinStreamAllocsPerInputRow(t *testing.T) {
	const n, batch = 10000, 256
	lv, rv, lb, rb := joinInputs(n, batch)
	run := func() (objects, bytes uint64) {
		left, right := make(chan *match.Bindings), make(chan *match.Bindings)
		out := make(chan *match.Bindings, len(lb)+len(rb))
		objects, bytes = measureAllocs(func() {
			go func() {
				for i := range lb {
					left <- lb[i]
					right <- rb[i]
				}
				close(left)
				close(right)
			}()
			JoinStream(context.Background(), lv, rv, left, right, out)
		})
		joined := 0
		for b := range out {
			joined += b.Len()
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
	if perRow > 0.0115 {
		t.Errorf("streaming join allocates %.4f objects per input row (%d total), want <= 0.0115", perRow, objects)
	}
	if bytesPerRow > 41 {
		t.Errorf("streaming join allocates %.1f B per input row, want <= 41", bytesPerRow)
	}
}

// TestJoinProbeOnlyAfterClose: once right has closed, 10 000 more left
// rows cost their output rows and each output batch's Bindings, nothing
// else — no chain link, no chunk, no slot: left's rows are probed against
// right's table and let go, and left's own table is gone.
func TestJoinProbeOnlyAfterClose(t *testing.T) {
	const n, batch = 10000, 256
	lv, rv, lb, rb := joinInputs(n, batch)
	s := newSymJoiner(newJoinGeom(lv, rv))
	for _, b := range rb {
		if s.probe(b, false) != nil {
			t.Fatal("right rows matched an empty left side")
		}
	}
	s.close(false)
	right := *s.right
	var joined, outBatches int
	var outBytes uint64
	objects, bytes := measureAllocs(func() {
		for _, b := range lb {
			if found := s.probe(b, true); found != nil {
				joined += found.Len()
				outBatches++
				outBytes += uint64(cap(found.Rows)) * 4
			}
		}
	})
	if joined != n {
		t.Fatalf("joined %d rows, want %d", joined, n)
	}
	if s.left != nil || len(s.right.chunks) != len(right.chunks) || len(s.right.slots) != len(right.slots) {
		t.Fatal("probing after right closed stored left rows or grew right's table")
	}
	// A Bindings is 56 bytes, allocated from the 64-byte size class.
	t.Logf("%d output batches: %d allocations, %d B (%d B of output rows)", outBatches, objects, bytes, outBytes)
	if objects > uint64(2*outBatches) || bytes > outBytes+uint64(64*outBatches) {
		t.Errorf("%d probe-only batches allocate %d objects and %d B, want <= %d and <= %d B (output rows and one Bindings each)",
			outBatches, objects, bytes, 2*outBatches, outBytes+uint64(64*outBatches))
	}
}

// TestEvalStreamAllocsPerBatch: past its fixed set-up, a site evaluation
// costs a further full batch its row array and its Bindings, nothing for
// sorting it — measured as the difference between a large and a small
// WatDiv fragment under the same query (2.04; the ceiling is that plus
// 10%).
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
				if b.Len() == DefaultBatchSize {
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
	if perBatch > 2.25 {
		t.Errorf("an additional %d-row batch costs %.2f allocations, want <= 2.25", DefaultBatchSize, perBatch)
	}
}
