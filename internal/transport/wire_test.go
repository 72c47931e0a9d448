package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// wireRowsSeeds are the shapes the hand-written decoder must agree with
// encoding/json on: everything json.Marshal of a [][]rdf.ID emits (null,
// empty lists, nil and ragged rows, the largest ID), whitespace, and the
// inputs it must refuse because encoding/json refuses them. New seeds go
// at the end: the corpus names them by position.
var wireRowsSeeds = []string{
	`null`, `[]`, `[[]]`, `[[],[]]`, `[null]`, `[null,[1]]`, `[[1,2],[3]]`, `[[0]]`, `[[4294967295,0,7]]`,
	" [ [ 1 , 2 ] ,\n\t[ ] , null ] \r\n",
	`[[-1]]`, `[[-0]]`, `[[1.5]]`, `[[1.0]]`, `[[1e2]]`, `[[1E2]]`, `[[4294967296]]`, `[[99999999999999999999]]`,
	`[[01]]`, `[[1]] x`, `[[1]]]`, `[[1],]`, `[[1], ]`, `[[1,]]`, `[[1, ]]`, `[ ,[1]]`, `[,[1]]`, `[[1] [2]]`, `[[1 2]]`, `[[`, `[[1]`, ``, ` `,
	`[1]`, `[[[1]]]`, `[["1"]]`, `[[null]]`, `[[true]]`, `"rows"`, `{}`, `[{}]`, `7`, `nul`, `nulll`, `[nul]`,
	// Ragged and over-wide against the two variables checkWireRows names.
	`[[1,2],[3,4]]`, `[[1,2],[3,4,5]]`, `[[1,2,3],[4,5,6]]`, `[[1,2],[]]`, `[[1,2],null]`, `[[1],[2,3]]`, `[[],[1,2]]`, `[[1,2],[3,4],[5]]`,
}

// checkWireRows compares wireRows with encoding/json into a [][]rdf.ID on
// one input: it may refuse more, never accept more, and whatever it
// accepts it must decode to the same IDs in the same order, the same
// number of rows, and their common width or the mark that they have none
// — both through json.Unmarshal and called directly, where no scanner has
// vetted the bytes first. A frame holding the rows is then a table over
// two variables only if every row is two wide.
func checkWireRows(t *testing.T, data []byte) {
	t.Helper()
	var want [][]rdf.ID
	wantErr := json.Unmarshal(data, &want)
	wantW := 0
	for i, row := range want {
		if i == 0 {
			wantW = len(row)
		} else if len(row) != wantW {
			wantW = -1
		}
	}
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
		if r := got.rows; !slices.Equal(r.ids, slices.Concat(want...)) || r.n != len(want) || r.w != wantW {
			t.Fatalf("%s decoded %q to %d rows of width %d holding %v, encoding/json to %#v", name, data, r.n, r.w, r.ids, want)
		}
		vars := []string{"x", "y"}
		f := frame{K: "b", Vars: vars, Rows: *got.rows}
		b, err := f.bindings(vars)
		if uniform := wantW == 2 || len(want) == 0; (err == nil) != uniform {
			t.Fatalf("%s: a frame of %q over %v: err %v, want accepted = %v", name, data, vars, err, uniform)
		}
		if err == nil && (len(b.Rows) != b.Len()*len(vars) || b.Len() != len(want)) {
			t.Fatalf("%s: a frame of %q was accepted as %d rows over %v holding %d IDs", name, data, b.Len(), vars, len(b.Rows))
		}
	}
	if wantErr != nil {
		return
	}
	// What encoding/json accepted, json.Marshal can emit again: that
	// form must decode, and to the same value — and where the rows are a
	// table, wireRows must emit those very bytes.
	canon, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var again wireRows
	if err := json.Unmarshal(canon, &again); err != nil {
		t.Fatalf("rejected %s, the json.Marshal form of %q: %v", canon, data, err)
	}
	if !slices.Equal(again.ids, slices.Concat(want...)) || again.n != len(want) || again.w != wantW {
		t.Fatalf("decoded %s to %d rows of width %d holding %v, encoding/json to %#v", canon, again.n, again.w, again.ids, want)
	}
	if wantW >= 0 && want != nil && !slices.ContainsFunc(want, func(r []rdf.ID) bool { return r == nil }) {
		if out, err := json.Marshal(again); err != nil || !bytes.Equal(out, canon) {
			t.Fatalf("encoded the rows of %s as %s, err %v", canon, out, err)
		}
	}
}

func FuzzWireRows(f *testing.F) {
	for _, s := range wireRowsSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkWireRows)
}

func wireTable(vars []string, n int) *match.Bindings {
	b := &match.Bindings{Vars: vars}
	for i := 0; i < n; i++ {
		b.Rows = append(b.Rows, rdf.ID(i), rdf.ID(i*7), rdf.NoID)
	}
	return b
}

// TestWireRowsFrameRoundTrip: a batch frame written by the server's
// encoder is byte for byte what encoding/json makes of the same rows as a
// [][]rdf.ID, comes back through the client's json.Decoder as the same
// table in one flat array, and the next frame on the stream still decodes
// (the framing is untouched). A batch without rows omits the field; one
// of empty tuples ships them.
func TestWireRowsFrameRoundTrip(t *testing.T) {
	vars := []string{"x", "y", "z"}
	b := wireTable(vars, 256)
	nested := make([][]rdf.ID, b.Len())
	for i := range nested {
		nested[i] = b.Row(i)
	}
	var buf, ref bytes.Buffer
	enc, refEnc := json.NewEncoder(&buf), json.NewEncoder(&ref)
	for i := 0; i < 2; i++ {
		if err := enc.Encode(&frame{K: "b", Vars: vars, Rows: rowsOf(b)}); err != nil {
			t.Fatal(err)
		}
		refEnc.Encode(map[string]any{"k": "b", "vars": vars, "rows": nested})
	}
	var had, want map[string]json.RawMessage
	line, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	refLine, _, _ := bytes.Cut(ref.Bytes(), []byte("\n"))
	if json.Unmarshal(line, &had) != nil || json.Unmarshal(refLine, &want) != nil || !bytes.Equal(had["rows"], want["rows"]) {
		t.Fatalf("rows went out as %.60s..., encoding/json writes %.60s...", had["rows"], want["rows"])
	}
	if err := enc.Encode(&frame{K: "b", Vars: vars}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&frame{K: "b", Rows: rowsOf(&match.Bindings{Nullary: 2})}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&frame{K: "done"}); err != nil {
		t.Fatal(err)
	}
	if tail := buf.String(); !strings.HasSuffix(tail, `{"k":"b","vars":["x","y","z"]}`+"\n"+`{"k":"b","rows":[[],[]]}`+"\n"+`{"k":"done"}`+"\n") {
		t.Fatalf("the stream ends %q", tail[len(tail)-120:])
	}
	dec := json.NewDecoder(&buf)
	for i := 0; i < 2; i++ {
		var f frame
		if err := dec.Decode(&f); err != nil {
			t.Fatal(err)
		}
		got, err := f.bindings(vars)
		if err != nil || f.K != "b" || got.Len() != 256 || !slices.Equal(got.Rows, b.Rows) {
			t.Fatalf("frame %d came back as k=%q with %d rows, err %v", i, f.K, f.Rows.n, err)
		}
	}
	var f frame
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if got, err := f.bindings(vars); err != nil || got.Len() != 0 || got.Rows != nil {
		t.Fatalf("the empty batch came back as %+v, err %v", got, err)
	}
	f = frame{}
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if got, err := f.bindings(nil); err != nil || got.Len() != 2 || len(got.Rows) != 0 {
		t.Fatalf("two empty tuples came back as %+v, err %v", got, err)
	}
	f = frame{}
	if err := dec.Decode(&f); err != nil || f.K != "done" || f.Rows.n != 0 {
		t.Fatalf("done frame came back as %+v, err %v", f, err)
	}
}

// TestWireRowsDecodeAllocs: decoding a batch's rows costs the ID array
// and nothing else, whatever the row count (encoding/json grew each row
// and the list by reflection, several allocations per row; a header
// slice beside the array was the second).
func TestWireRowsDecodeAllocs(t *testing.T) {
	data, err := json.Marshal(rowsOf(wireTable([]string{"x", "y", "z"}, 256)))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var got wireRows
		if err := got.UnmarshalJSON(data); err != nil || got.n != 256 || got.w != 3 {
			t.Fatalf("decoded %d rows of width %d, err %v", got.n, got.w, err)
		}
	})
	if allocs > 1 {
		t.Errorf("decoding 256 rows allocates %.0f objects, want 1", allocs)
	}
}

// TestClientRejectsFramesThatAreNoTable: a batch frame is checked against
// the request — its vars must be the subquery's and every row exactly
// that wide. A site that answers otherwise fails the attempt the way a
// torn stream does: retried, and with every attempt as bad the call ends
// unavailable with nothing ragged handed to the sink.
func TestClientRejectsFramesThatAreNoTable(t *testing.T) {
	_, d, q := newTestCluster(t, 4)
	for name, batch := range map[string]string{
		"other vars": `{"k":"b","vars":["x","z"],"rows":[[1,2]]}`,
		"no vars":    `{"k":"b","rows":[[1,2]]}`,
		"ragged":     `{"k":"b","vars":["x","y"],"rows":[[1,2],[3]]}`,
		"over-wide":  `{"k":"b","vars":["x","y"],"rows":[[1,2,3],[4,5,6]]}`,
		"narrow":     `{"k":"b","vars":["x","y"],"rows":[[1],[2]]}`,
		"null row":   `{"k":"b","vars":["x","y"],"rows":[[1,2],null]}`,
	} {
		t.Run(name, func(t *testing.T) {
			attempts := 0
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				attempts++
				fmt.Fprintf(w, "{\"k\":\"hdr\"}\n%s\n{\"k\":\"done\"}\n", batch)
			}))
			defer hs.Close()
			cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Dict: d, Retries: 2, Backoff: time.Microsecond})
			err := cl.EvalStream(t.Context(), testRequest(q), 8, func(b *match.Bindings) error {
				t.Errorf("the sink received %d rows over %v", b.Len(), b.Vars)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "transport: site 0: batch ") || attempts != 3 {
				t.Fatalf("after %d attempts: %v; want 3 attempts refused for the batch", attempts, err)
			}
		})
	}
}

// TestSiteRefusesQueriesItWouldMisread: edges name vertices by their
// place in the wire list, so a site answers 400 to a list it cannot
// rebuild place for place — a repeated vertex (the graph interns it, and
// every later vertex would move down one place: edge 0→2 below would
// become ?a→?c), a vertex or an edge label that is two things at once, a
// kept vertex the list does not have — and to a term its dictionary
// lacks, which it would have to add; it evaluates the same query written
// plainly. Rows are raw IDs, so it answers 409, before reading the query,
// to a request whose dictionary stamp is missing or is no prefix of its
// own dictionary: here, one term longer.
func TestSiteRefusesQueriesItWouldMisread(t *testing.T) {
	c, d, _ := newTestCluster(t, 4)
	ss := NewSiteServer(ServerConfig{Cluster: c, Dict: d})
	post := func(stamp, query string) *httptest.ResponseRecorder {
		body := fmt.Sprintf(`{"site":0,"frags":[1,2],%s"query":%s}`, stamp, query)
		rec := httptest.NewRecorder()
		ss.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/eval", strings.NewReader(body)))
		return rec
	}
	stampOf := func(d *rdf.Dict) string {
		return fmt.Sprintf(`"dictLen":%d,"dictFp":%d,`, d.Len(), d.Fingerprint(d.Len()))
	}
	site := stampOf(d)
	longer := prefixCopy(d, d.Len())
	longer.Encode(rdf.NewIRI("later"))
	const plain = `{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}]}`
	n := d.Len()
	for _, tc := range []struct {
		name, stamp, query string
		status             int
	}{
		{"plain", site, plain, http.StatusOK},
		{"repeated var", site, `{"verts":[{"var":"a"},{"var":"a"},{"var":"b"},{"var":"c"}],"edges":[{"from":0,"to":2,"pred":"<p"}]}`, http.StatusBadRequest},
		{"repeated term", site, `{"verts":[{"term":"<a1"},{"term":"<a1"},{"var":"b"}],"edges":[{"from":0,"to":2,"pred":"<p"}]}`, http.StatusBadRequest},
		{"var and term", site, `{"verts":[{"var":"a","term":"<a1"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}]}`, http.StatusBadRequest},
		{"pred and predVar", site, `{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p","predVar":"p"}]}`, http.StatusBadRequest},
		{"neither var nor term", site, `{"verts":[{},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}]}`, http.StatusBadRequest},
		{"edge out of range", site, `{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":2,"pred":"<p"}]}`, http.StatusBadRequest},
		{"keep", site, `{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}],"keep":[1]}`, http.StatusOK},
		{"keep beyond the vertices", site, `{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}],"keep":[5]}`, http.StatusBadRequest},
		{"keep a word beyond the vertices", site, `{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}],"keep":[1,1]}`, http.StatusBadRequest},
		{"a term the site lacks", site, `{"verts":[{"term":"<a1"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<nowhere"}]}`, http.StatusBadRequest},
		{"unstamped", "", plain, http.StatusConflict},
		{"a client dictionary longer than the site's", stampOf(longer), plain, http.StatusConflict},
	} {
		if rec := post(tc.stamp, tc.query); rec.Code != tc.status {
			t.Errorf("%s: /eval answered %d (%s), want %d", tc.name, rec.Code, strings.TrimSpace(rec.Body.String()), tc.status)
		}
	}
	if d.Len() != n {
		t.Errorf("the site's dictionary grew from %d to %d terms", n, d.Len())
	}
}

// FuzzDecodeQuery: a site decodes whatever query an /eval body carries
// without panicking or adding a term to its dictionary, and a query it
// accepts is one the control site could have sent — encodeQuery writes it
// back to the very wire form, its kept vertices included.
func FuzzDecodeQuery(f *testing.F) {
	for _, s := range []string{
		`{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}]}`,
		`{"verts":[{"var":"x"},{"term":"\"lit\\n"},{"term":"_b0"}],"edges":[{"from":0,"to":1,"predVar":"p"},{"from":2,"to":0,"pred":"<q"}]}`,
		`{"verts":[{"term":"<"}],"edges":[{"from":0,"to":0,"pred":"<"}]}`,
		`{"verts":[{"var":"a"},{"var":"a"},{"var":"b"},{"var":"c"}],"edges":[{"from":0,"to":2,"pred":"<p"}]}`,
		`{"verts":[{"var":"a","term":"<a"}],"edges":[]}`,
		`{"verts":[{"var":"a"}],"edges":[{"from":0,"to":0,"pred":"<p","predVar":"p"}]}`,
		`{"verts":[{"term":"x"}],"edges":[{"from":-1,"to":0,"pred":"<p"}]}`,
		`{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}],"keep":[1]}`,
		`{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}],"keep":[4]}`,
		`{"verts":[{"var":"a"},{"var":"b"}],"edges":[{"from":0,"to":1,"pred":"<p"}],"keep":[0,1]}`,
		`{"verts":[{"var":"a"}],"edges":[{"from":0,"to":0,"pred":"<p"}],"keep":[]}`,
		`{"verts":[{"var":"a"}],"edges":[{"from":0,"to":0,"pred":"<p"}],"keep":[-1]}`,
		`{"verts":[],"edges":[]}`, `{}`, `null`,
	} {
		f.Add([]byte(s))
	}
	d := rdf.NewDict() // the seeds' terms, so that some decode
	for _, t := range []rdf.Term{rdf.NewIRI("p"), rdf.NewIRI("q"), rdf.NewIRI(""), rdf.NewIRI("a"), rdf.NewLiteral("lit\n"), rdf.NewBlank("b0")} {
		d.Encode(t)
	}
	n := d.Len()
	f.Fuzz(func(t *testing.T, data []byte) {
		var wq wireQuery
		if json.Unmarshal(data, &wq) != nil {
			return
		}
		q, keep, err := decodeQuery(wq, d)
		if d.Len() != n {
			t.Fatalf("decoding %s added %d terms to the site's dictionary", data, d.Len()-n)
		}
		if err != nil {
			return
		}
		if !keep.Within(len(q.Verts)) {
			t.Fatalf("accepted keep %v over %d vertices", keep, len(q.Verts))
		}
		back := encodeQuery(q, keep, d)
		if !slices.Equal(back.Verts, wq.Verts) || !slices.Equal(back.Edges, wq.Edges) || !slices.Equal(back.Keep, wq.Keep) {
			t.Fatalf("accepted %+v, which encodes back to %+v", wq, back)
		}
	})
}
