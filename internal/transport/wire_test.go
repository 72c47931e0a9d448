package transport

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"

	"rdffrag/internal/rdf"
)

// wireRowsSeeds are the shapes the hand-written decoder must agree with
// encoding/json on: everything json.Marshal of a [][]rdf.ID emits (null,
// empty lists, nil and ragged rows, the largest ID), whitespace, and the
// inputs it must refuse because encoding/json refuses them.
var wireRowsSeeds = []string{
	`null`, `[]`, `[[]]`, `[[],[]]`, `[null]`, `[null,[1]]`, `[[1,2],[3]]`, `[[0]]`, `[[4294967295,0,7]]`,
	" [ [ 1 , 2 ] ,\n\t[ ] , null ] \r\n",
	`[[-1]]`, `[[-0]]`, `[[1.5]]`, `[[1.0]]`, `[[1e2]]`, `[[1E2]]`, `[[4294967296]]`, `[[99999999999999999999]]`,
	`[[01]]`, `[[1]] x`, `[[1]]]`, `[[1],]`, `[[1], ]`, `[[1,]]`, `[[1, ]]`, `[ ,[1]]`, `[,[1]]`, `[[1] [2]]`, `[[1 2]]`, `[[`, `[[1]`, ``, ` `,
	`[1]`, `[[[1]]]`, `[["1"]]`, `[[null]]`, `[[true]]`, `"rows"`, `{}`, `[{}]`, `7`, `nul`, `nulll`, `[nul]`,
}

// checkWireRows compares wireRows with encoding/json into a [][]rdf.ID on
// one input: it may refuse more, never accept more, and whatever it
// accepts it must decode to the identical value (nil and empty told
// apart) — both through json.Unmarshal and called directly, where no
// scanner has vetted the bytes first.
func checkWireRows(t *testing.T, data []byte) {
	t.Helper()
	var want [][]rdf.ID
	wantErr := json.Unmarshal(data, &want)
	var viaJSON, direct wireRows
	for name, got := range map[string]struct {
		rows *wireRows
		err  error
	}{
		"json.Unmarshal": {&viaJSON, json.Unmarshal(data, &viaJSON)},
		"UnmarshalJSON":  {&direct, direct.UnmarshalJSON(data)},
	} {
		if got.err != nil {
			continue
		}
		if wantErr != nil {
			t.Fatalf("%s accepted %q, which encoding/json rejects: %v", name, data, wantErr)
		}
		if !reflect.DeepEqual([][]rdf.ID(*got.rows), want) {
			t.Fatalf("%s decoded %q to %#v, encoding/json to %#v", name, data, *got.rows, want)
		}
	}
	if wantErr != nil {
		return
	}
	// What encoding/json accepted, json.Marshal can emit again: that
	// form must decode, and to the same value.
	canon, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var again wireRows
	if err := json.Unmarshal(canon, &again); err != nil {
		t.Fatalf("rejected %s, the json.Marshal form of %q: %v", canon, data, err)
	}
	var wantAgain [][]rdf.ID
	if err := json.Unmarshal(canon, &wantAgain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([][]rdf.ID(again), wantAgain) {
		t.Fatalf("decoded %s to %#v, encoding/json to %#v", canon, again, wantAgain)
	}
}

func FuzzWireRows(f *testing.F) {
	for _, s := range wireRowsSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkWireRows)
}

// TestWireRowsFrameRoundTrip: a batch frame written by the server's
// encoder comes back through the client's json.Decoder with the same
// rows, every row carved from one backing array and capped, and the next
// frame on the stream still decodes (the framing is untouched).
func TestWireRowsFrameRoundTrip(t *testing.T) {
	rows := make([][]rdf.ID, 256)
	for i := range rows {
		rows[i] = []rdf.ID{rdf.ID(i), rdf.ID(i * 7), rdf.NoID}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for seq := 0; seq < 2; seq++ {
		if err := enc.Encode(&frame{K: "b", Seq: seq, Vars: []string{"x", "y", "z"}, Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(&frame{K: "done", Count: 2}); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	for seq := 0; seq < 2; seq++ {
		var f frame
		if err := dec.Decode(&f); err != nil {
			t.Fatal(err)
		}
		if f.K != "b" || f.Seq != seq || !reflect.DeepEqual([][]rdf.ID(f.Rows), rows) {
			t.Fatalf("frame %d came back as k=%q seq=%d with %d rows", seq, f.K, f.Seq, len(f.Rows))
		}
		for i, r := range f.Rows {
			if cap(r) != len(r) {
				t.Fatalf("row %d has spare capacity %d: appending to it would reach its neighbour", i, cap(r)-len(r))
			}
			if i > 0 && unsafe.Pointer(&r[0]) != unsafe.Add(unsafe.Pointer(&f.Rows[i-1][0]), 3*unsafe.Sizeof(rdf.ID(0))) {
				t.Fatalf("row %d does not follow row %d in one backing array", i, i-1)
			}
		}
	}
	var f frame
	if err := dec.Decode(&f); err != nil || f.K != "done" || f.Count != 2 || f.Rows != nil {
		t.Fatalf("done frame came back as %+v, err %v", f, err)
	}
}

// TestWireRowsDecodeAllocs: decoding a batch's rows costs the ID array
// and the header slice, whatever the row count (encoding/json grew each
// row and the list by reflection, several allocations per row).
func TestWireRowsDecodeAllocs(t *testing.T) {
	rows := make([][]rdf.ID, 256)
	for i := range rows {
		rows[i] = []rdf.ID{rdf.ID(i), rdf.ID(i * 7), rdf.NoID}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var got wireRows
		if err := got.UnmarshalJSON(data); err != nil || len(got) != len(rows) {
			t.Fatalf("decoded %d rows, err %v", len(got), err)
		}
	})
	if allocs > 2 {
		t.Errorf("decoding 256 rows allocates %.0f objects, want 2", allocs)
	}
}
