package cluster

// Tests for the flat-table path: the chain table and chunked row store on
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
// the order they were added — walked from the newest back — at every key
// width, a five-column key included, through many doublings of the slot
// table; the key is probed from the other side's column order.
func TestJoinTableChainsKeepInsertionOrder(t *testing.T) {
	for _, width := range []int{0, 1, 4, 5} {
		cols, otherCols := make([]int, width), make([]int, width)
		for i := range cols {
			cols[i], otherCols[i] = i, width-1-i
		}
		rng := rand.New(rand.NewSource(int64(width)))
		tab := newJoinTable(width, cols)
		want := map[string][]int32{}
		var rows [][]rdf.ID
		for idx := int32(0); idx < 500; idx++ {
			row := make([]rdf.ID, width)
			for i := range row {
				row[i] = rdf.ID(rng.Intn(3))
			}
			rows = append(rows, row)
			tab.add(row)
			want[fmt.Sprint(row)] = append(want[fmt.Sprint(row)], idx)
		}
		for _, row := range rows {
			probe := slices.Clone(row)
			slices.Reverse(probe)
			c := tab.lookup(probe, otherCols)
			var got []int32
			for i, k := c.newest, c.n; k > 0; i, k = tab.older(i), k-1 {
				got = append(got, i)
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

// TestRowStoreNeverMovesARow: rows keep their place as the store grows
// across chunk boundaries, and at finds each one; a store made over an
// existing block reads it where it is.
func TestRowStoreNeverMovesARow(t *testing.T) {
	tab := newJoinTable(2, []int{0})
	var slots []*rdf.ID
	const n = 4097
	for i := 0; i < n; i++ {
		tab.add([]rdf.ID{rdf.ID(i), rdf.ID(2 * i)})
		slots = append(slots, &tab.at(int32(i))[0])
	}
	if len(tab.chunks[0].rows) != 2*rowStoreFirst || rowStoreFirst > 16 {
		t.Fatalf("first chunk holds %d IDs, want 2 x rowStoreFirst = %d <= 16 rows", len(tab.chunks[0].rows), rowStoreFirst)
	}
	for i := 0; i < n; i++ {
		if got := tab.at(int32(i)); !slices.Equal(got, []rdf.ID{rdf.ID(i), rdf.ID(2 * i)}) {
			t.Fatalf("at(%d) = %v", i, got)
		}
		if slots[i] != &tab.at(int32(i))[0] {
			t.Fatalf("row %d moved while the store grew", i)
		}
	}
	for _, n := range []int{1, 7, 8, 9, 1000} {
		block := make([]rdf.ID, 2*n)
		over := indexRows(block, 2, n, []int{1})
		for i := 0; i < n; i++ {
			if &over.at(int32(i))[0] != &block[2*i] {
				t.Fatalf("a table over a block of %d rows reads row %d elsewhere", n, i)
			}
		}
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
// rows on one shared column allocates per batch, per chunk and per
// doubling of a slot table — never per row (it once cost more than one
// allocation per input row and 300 B, then 179 B with a slice header per
// row and a Go map per side). The bytes are the output rows, the two
// stores with their chain links and the two slot tables; the ceilings are
// the 0.0092 objects and 52.3 B it measures plus 10%.
func TestJoinStreamAllocsPerInputRow(t *testing.T) {
	const n, batch = 10000, 256
	lv, rv := []string{"x", "y"}, []string{"y", "z"}
	mk := func(shift int) []rdf.ID {
		rows := make([]rdf.ID, 2*n)
		for i := 0; i < n; i++ {
			rows[2*i], rows[2*i+1] = rdf.ID(i+shift), rdf.ID(i+1-shift) // y = i+1 on both sides
		}
		return rows
	}
	lrows, rrows := mk(0), mk(1)
	run := func() (objects, bytes uint64) {
		left := make(chan *match.Bindings, n/batch+1)
		right := make(chan *match.Bindings, n/batch+1)
		out := make(chan *match.Bindings, 2*(n/batch+1))
		for i := 0; i < n; i += batch {
			left <- &match.Bindings{Vars: lv, Rows: lrows[2*i : 2*min(i+batch, n)]}
			right <- &match.Bindings{Vars: rv, Rows: rrows[2*i : 2*min(i+batch, n)]}
		}
		close(left)
		close(right)
		objects, bytes = measureAllocs(func() { JoinStream(context.Background(), lv, rv, left, right, out) })
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
	if perRow > 0.011 {
		t.Errorf("streaming join allocates %.4f objects per input row (%d total), want <= 0.011", perRow, objects)
	}
	if bytesPerRow > 58 {
		t.Errorf("streaming join allocates %.1f B per input row, want <= 58", bytesPerRow)
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
