package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// wireBytes concatenates the wire forms of parts: an int as a uint32, a
// uint64 as itself, a string or a []byte as its bytes.
func wireBytes(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = le.AppendUint32(b, uint32(p))
		case uint64:
			b = le.AppendUint64(b, p)
		case string:
			b = append(b, p...)
		case []byte:
			b = append(b, p...)
		default:
			panic(fmt.Sprintf("wireBytes: %T", p))
		}
	}
	return b
}

// str is a wire string: its length and its bytes.
func str(s string) []byte { return wireBytes(len(s), s) }

// frameOf is a frame of kind holding the payload parts.
func frameOf(kind byte, parts ...any) []byte {
	p := wireBytes(parts...)
	return append(appendFrameHead(nil, kind, len(p)), p...)
}

// hdrOf is the header frame naming vars; batchOf the batch frame of rows
// whose count says n.
func hdrOf(vars ...string) []byte {
	parts := []any{len(vars)}
	for _, v := range vars {
		parts = append(parts, str(v))
	}
	return frameOf(frameHdr, parts...)
}

func batchOf(n int, ids ...int) []byte {
	parts := []any{n}
	for _, id := range ids {
		parts = append(parts, id)
	}
	return frameOf(frameBatch, parts...)
}

var doneFrame = frameOf(frameDone)

// frameSeeds are response streams to a subquery over ?x ?y: what a site
// writes (batches empty, full, larger than the pooled reader, the largest
// ID), and what the client must refuse — a header naming other variables,
// a batch before it or of another shape, a stream cut at every few bytes,
// a frame of an unknown kind, a length past maxFrameBytes or past the end
// of the stream, and data after done. New seeds go at the end: the corpus
// names them by position.
var frameSeeds = func() [][]byte {
	var big []int
	for i := 0; i < 20000; i++ {
		big = append(big, i, 1<<31+i)
	}
	full := wireBytes(hdrOf("x", "y"), batchOf(2, 1, 2, 3, 4), batchOf(1, 5, 6), doneFrame)
	seeds := [][]byte{
		wireBytes(hdrOf("x", "y"), doneFrame),
		wireBytes(hdrOf("x", "y"), batchOf(0), doneFrame),
		wireBytes(hdrOf("x", "y"), batchOf(1, 1, 2), doneFrame),
		full,
		wireBytes(hdrOf("x", "y"), batchOf(1, 1<<32-1, 0), doneFrame),
		wireBytes(hdrOf("x", "y"), batchOf(20000, big...), doneFrame),
		wireBytes(hdrOf("x", "y"), batchOf(1, 1, 2), frameOf(frameErr, "boom")),
		wireBytes(hdrOf("x", "y"), frameOf(frameErr)),
		frameOf(frameErr, "refused before the header"),
		{},
		hdrOf("x", "y"),
		wireBytes(hdrOf("x", "y"), doneFrame, "x"),
		wireBytes(hdrOf("x", "y"), doneFrame, "\n"),
		wireBytes(hdrOf("x", "z"), doneFrame),
		wireBytes(hdrOf("x"), doneFrame),
		wireBytes(hdrOf("x", "y", "z"), doneFrame),
		wireBytes(hdrOf(), doneFrame),
		wireBytes(batchOf(1, 1, 2), hdrOf("x", "y"), doneFrame),
		wireBytes(hdrOf("x", "y"), hdrOf("x", "y"), doneFrame),
		wireBytes(hdrOf("x", "y"), batchOf(2, 1, 2, 3), doneFrame),
		wireBytes(hdrOf("x", "y"), batchOf(2, 1, 2, 3, 4, 5, 6), doneFrame),
		wireBytes(hdrOf("x", "y"), batchOf(2, 1, 2), doneFrame),
		wireBytes(hdrOf("x", "y"), batchOf(1), doneFrame),
		wireBytes(hdrOf("x", "y"), frameOf(frameBatch), doneFrame),
		wireBytes(hdrOf("x", "y"), frameOf(frameBatch, "\x01\x00"), doneFrame),
		wireBytes(hdrOf("x", "y"), appendFrameHead(nil, frameBatch, maxFrameBytes+1)),
		wireBytes(hdrOf("x", "y"), appendFrameHead(nil, frameBatch, 1<<32-1), "\x00\x00\x00\x40"),
		wireBytes(hdrOf("x", "y"), appendFrameHead(nil, frameBatch, 4+8*1000), wireBytes(1000, 1, 2)),
		wireBytes(hdrOf("x", "y"), frameOf('z', "?"), doneFrame),
		wireBytes(hdrOf("x", "y"), frameOf(frameDone, "!")),
		frameOf(frameHdr, 3, str("x"), str("y")),
		wireBytes(frameOf(frameHdr, 2, str("x"), str("y"), "!"), doneFrame),
		wireBytes(frameOf(frameHdr, 2, str("x"), 9, "y"), doneFrame),
		wireBytes(frameOf(frameHdr), doneFrame),
		wireBytes(appendFrameHead(nil, frameHdr, maxFrameBytes), "\x02"),
	}
	for n := 1; n < len(full); n += 3 {
		seeds = append(seeds, full[:n])
	}
	// A batch whose count backs its length of nearly maxFrameBytes, cut
	// after its first row.
	rows := (maxFrameBytes - 4) / 8
	return append(seeds, wireBytes(hdrOf("x", "y"), appendFrameHead(nil, frameBatch, 4+8*rows), rows, 1, 2))
}()

// checkFrames reads data as a site's answer to a subquery over ?x ?y. It
// must not panic, nor allocate from a length prefix more than the bytes
// back; a batch it delivers is a table over the subquery's variables; and
// what it accepts is exactly the stream a site writes of the batches it
// delivered.
func checkFrames(t *testing.T, data []byte) {
	vars := []string{"x", "y"}
	var batches []*match.Bindings
	defer func() {
		for _, b := range batches {
			b.Release()
		}
	}()
	body := bytes.NewReader(data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	br := readers.Get().(*bufio.Reader)
	br.Reset(body)
	o := readFrames(br, vars, func(b *match.Bindings) error {
		batches = append(batches, b)
		return nil
	}, func() {})
	br.Reset(nil)
	readers.Put(br)
	runtime.ReadMemStats(&after)
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+32*len(data)); grew > bound {
		t.Fatalf("reading %d bytes allocated %d, more than %d", len(data), grew, bound)
	}
	for _, b := range batches {
		if !slices.Equal(b.Vars, vars) || len(b.Rows) != b.Len()*len(vars) {
			t.Fatalf("delivered %d IDs as %d rows over %v", len(b.Rows), b.Len(), b.Vars)
		}
	}
	if o.refused || o.torn != (o.err != nil && strings.HasPrefix(o.err.Error(), "stream cut")) {
		t.Fatalf("outcome %+v", o)
	}
	if o.err != nil {
		return
	}
	want := appendHdr(nil, vars)
	for _, b := range batches {
		want = appendBatch(want, b)
	}
	if want = appendFrame(want, frameDone, ""); !bytes.Equal(want, data) {
		t.Fatalf("accepted %q, which a site writes as %q", data, want)
	}
}

func FuzzWireRows(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add(s)
	}
	f.Fuzz(checkFrames)
}

func wireTable(vars []string, n int) *match.Bindings {
	b := &match.Bindings{Vars: vars}
	for i := 0; i < n; i++ {
		b.Rows = append(b.Rows, rdf.ID(i), rdf.ID(i*7), rdf.NoID)
	}
	return b
}

// readStream reads data as the answer to a subquery over vars, returning
// the delivered batches.
func readStream(t *testing.T, data []byte, vars []string) []*match.Bindings {
	t.Helper()
	var got []*match.Bindings
	br := bufio.NewReader(bytes.NewReader(data))
	if o := readFrames(br, vars, func(b *match.Bindings) error { got = append(got, b); return nil }, func() {}); o.err != nil {
		t.Fatalf("reading %d bytes: %v", len(data), o.err)
	}
	return got
}

// TestWireRowsFrameRoundTrip: the frames a site writes — its header, two
// batches of 256 rows, an empty batch, done — come back through the
// client's reader as the same tables, each in one flat array, and so do
// two empty tuples of a subquery without variables.
func TestWireRowsFrameRoundTrip(t *testing.T) {
	vars := []string{"x", "y", "z"}
	b := wireTable(vars, 256)
	stream := appendHdr(nil, vars)
	stream = appendBatch(appendBatch(stream, b), b)
	stream = appendBatch(stream, &match.Bindings{Vars: vars})
	stream = appendFrame(stream, frameDone, "")
	if want := len(hdrOf(vars...)) + 2*(9+256*3*4) + 9 + 5; len(stream) != want {
		t.Fatalf("the stream is %d bytes, want %d", len(stream), want)
	}
	got := readStream(t, stream, vars)
	if len(got) != 3 {
		t.Fatalf("%d batches came back, want 3", len(got))
	}
	for i, g := range got[:2] {
		if g.Len() != 256 || !slices.Equal(g.Rows, b.Rows) || !slices.Equal(g.Vars, vars) {
			t.Fatalf("batch %d came back as %d rows over %v", i, g.Len(), g.Vars)
		}
	}
	if g := got[2]; g.Len() != 0 || g.Rows != nil {
		t.Fatalf("the empty batch came back as %+v", g)
	}

	nullary := appendBatch(appendHdr(nil, nil), &match.Bindings{Nullary: 2})
	got = readStream(t, appendFrame(nullary, frameDone, ""), nil)
	if len(got) != 1 || got[0].Len() != 2 || len(got[0].Rows) != 0 {
		t.Fatalf("two empty tuples came back as %+v", got)
	}
}

// TestWireRowsDecodeAllocs: reading a batch costs the table's header and
// nothing else, whatever the row count: its IDs go straight from the
// reader's buffer into an array of match's free list.
func TestWireRowsDecodeAllocs(t *testing.T) {
	vars := []string{"x", "y", "z"}
	frame := appendBatch(nil, wireTable(vars, 256))
	var body bytes.Reader
	br := bufio.NewReader(&body)
	allocs := testing.AllocsPerRun(100, func() {
		body.Reset(frame[5:])
		br.Reset(&body)
		b, err := readBatch(br, len(frame)-5, vars)
		if err != nil || b.Len() != 256 {
			t.Fatalf("read %v, err %v", b, err)
		}
		b.Release()
	})
	if allocs > 1 {
		t.Errorf("reading 256 rows allocates %.0f objects, want 1", allocs)
	}
}

// TestClientRejectsFramesThatAreNoTable: a response is checked against the
// request — its header must name the subquery's variables, and every batch
// must hold its row count of rows exactly that wide. A site that answers
// otherwise fails the attempt the way a torn stream does: retried, and
// with every attempt as bad the call ends unavailable with nothing handed
// to the sink.
func TestClientRejectsFramesThatAreNoTable(t *testing.T) {
	_, d, q := newTestCluster(t, 4)
	xy := hdrOf("x", "y")
	for name, tc := range map[string]struct {
		frames []byte
		says   string
	}{
		"other vars":      {slices.Concat(hdrOf("x", "z"), batchOf(1, 1, 2)), "header names other variables than the subquery's [x y]"},
		"no vars":         {batchOf(1, 1, 2), "unexpected frame 'b' of 12 bytes"},
		"batch cut short": {slices.Concat(xy, batchOf(2, 1, 2, 3)), "batch of 16 bytes is no 2 rows 2 wide"},
		"over-wide":       {slices.Concat(xy, batchOf(2, 1, 2, 3, 4, 5, 6)), "batch of 28 bytes is no 2 rows 2 wide"},
		"narrow":          {slices.Concat(xy, batchOf(2, 1, 2)), "batch of 12 bytes is no 2 rows 2 wide"},
		"null row":        {slices.Concat(xy, batchOf(1)), "batch of 4 bytes is no 1 rows 2 wide"},
	} {
		t.Run(name, func(t *testing.T) {
			attempts := 0
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				attempts++
				w.Write(slices.Concat(tc.frames, doneFrame))
			}))
			defer hs.Close()
			cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Dict: d, Retries: 2, Backoff: time.Microsecond})
			err := cl.EvalStream(t.Context(), testRequest(q), 8, func(b *match.Bindings) error {
				t.Errorf("the sink received %d rows over %v", b.Len(), b.Vars)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "transport: site 0: "+tc.says) || attempts != 3 {
				t.Fatalf("after %d attempts: %v; want 3 attempts refused: %s", attempts, err, tc.says)
			}
		})
	}
}

// evalBody is an /eval request to site 0 for fragments 1 and 2, stamped
// with stamp (dictLen, dictFP), whose query is the parts after it.
func evalBody(stamp []byte, query ...any) []byte {
	return slices.Concat(wireBytes(0), stamp, wireBytes(append([]any{0, 2, 1, 2}, query...)...))
}

// vs and ts are a variable's and a term ID's slots.
func vs(name string) []byte { return wireBytes("v", str(name)) }
func ts(id int) []byte      { return wireBytes("t", id) }

// TestSiteRefusesQueriesItWouldMisread: edges name vertices by their
// place in the list, so a site answers 400 to a list it cannot rebuild
// place for place — a repeated vertex (the graph interns it, and every
// later vertex would move down one place: edge 0→2 below would become
// ?a→?c), a slot that is neither a variable nor a term, an edge to a
// vertex the list lacks, a kept vertex the list does not have, a list
// longer than the request, a request cut short or trailing bytes — and
// to a term ID at or past the client's stamped dictionary length, though
// the site's own dictionary holds it; it evaluates the same query written
// plainly. Rows are raw IDs, so it answers 409, before reading the query,
// to a request whose dictionary stamp is missing or is no prefix of its
// own dictionary: here, one term longer.
func TestSiteRefusesQueriesItWouldMisread(t *testing.T) {
	c, d, _ := newTestCluster(t, 4)
	ss := NewSiteServer(ServerConfig{Cluster: c, Dict: d})
	stampOf := func(d *rdf.Dict, n int) []byte { return wireBytes(n, d.Fingerprint(n)) }
	site := stampOf(d, d.Len())
	longer := prefixCopy(d, d.Len())
	longer.Encode(rdf.NewIRI("later"))
	p, ok := d.Lookup(rdf.NewIRI("p"))
	a1, ok1 := d.Lookup(rdf.NewIRI("a1"))
	if !ok || !ok1 {
		t.Fatal("test setup: <p> or <a1> missing")
	}
	last := d.Len() - 1
	pid, a1id := int(p), int(a1)
	plain := []any{2, vs("a"), vs("b"), 1, 0, 1, ts(pid), 0}
	n := d.Len()
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"plain", evalBody(site, plain...), http.StatusOK},
		{"plain, from a client a term behind", evalBody(stampOf(d, last), plain...), http.StatusOK},
		{"repeated var", evalBody(site, 4, vs("a"), vs("a"), vs("b"), vs("c"), 1, 0, 2, ts(pid), 0), http.StatusBadRequest},
		{"repeated term", evalBody(site, 3, ts(a1id), ts(a1id), vs("b"), 1, 0, 2, ts(pid), 0), http.StatusBadRequest},
		{"a slot of no kind", evalBody(site, 2, "x", vs("b"), 1, 0, 1, ts(pid), 0), http.StatusBadRequest},
		{"an empty variable name", evalBody(site, 2, vs(""), vs("b"), 1, 0, 1, ts(pid), 0), http.StatusBadRequest},
		{"edge out of range", evalBody(site, 2, vs("a"), vs("b"), 1, 0, 2, ts(pid), 0), http.StatusBadRequest},
		{"keep", evalBody(site, 2, vs("a"), vs("b"), 1, 0, 1, ts(pid), 1, uint64(2)), http.StatusOK},
		{"keep beyond the vertices", evalBody(site, 2, vs("a"), vs("b"), 1, 0, 1, ts(pid), 1, uint64(1<<5)), http.StatusBadRequest},
		{"keep a word beyond the vertices", evalBody(site, 2, vs("a"), vs("b"), 1, 0, 1, ts(pid), 2, uint64(2), uint64(1)), http.StatusBadRequest},
		{"a term past the client's dictionary", evalBody(stampOf(d, last), 2, vs("a"), vs("b"), 1, 0, 1, ts(last), 0), http.StatusBadRequest},
		{"a term past every dictionary", evalBody(site, 2, vs("a"), vs("b"), 1, 0, 1, ts(n), 0), http.StatusBadRequest},
		{"a list longer than the request", evalBody(site, 1<<30, vs("a")), http.StatusBadRequest},
		{"cut short", evalBody(site, plain...)[:40], http.StatusBadRequest},
		{"a byte past the end", append(evalBody(site, plain...), 0), http.StatusBadRequest},
		{"no stamp", wireBytes(0, 0), http.StatusBadRequest},
		{"unstamped", evalBody(wireBytes(0, uint64(0)), plain...), http.StatusConflict},
		{"a client dictionary longer than the site's", evalBody(stampOf(longer, longer.Len()), plain...), http.StatusConflict},
	} {
		rec := httptest.NewRecorder()
		ss.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/eval", bytes.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: /eval answered %d (%s), want %d", tc.name, rec.Code, strings.TrimSpace(rec.Body.String()), tc.status)
		}
		if ct := rec.Header().Get("Content-Type"); rec.Code == http.StatusOK && ct != "application/octet-stream" {
			t.Errorf("%s: /eval answered as %q", tc.name, ct)
		}
	}
	if d.Len() != n {
		t.Errorf("the site's dictionary grew from %d to %d terms", n, d.Len())
	}
}

// FuzzDecodeQuery: a site decodes whatever an /eval body carries without
// panicking, adding a term to its dictionary, or allocating from a length
// prefix more than the body backs, and a request it accepts is one the
// control site could have sent — appendRequest writes it back to the very
// bytes, its kept vertices included.
func FuzzDecodeQuery(f *testing.F) {
	d := rdf.NewDict()
	for _, t := range []rdf.Term{rdf.NewIRI("p"), rdf.NewIRI("q"), rdf.NewIRI(""), rdf.NewIRI("a"), rdf.NewLiteral("lit\n"), rdf.NewBlank("b0")} {
		d.Encode(t)
	}
	stamp := wireBytes(d.Len(), d.Fingerprint(d.Len()))
	for _, s := range [][]byte{
		evalBody(stamp, 2, vs("a"), vs("b"), 1, 0, 1, ts(0), 0),
		evalBody(stamp, 3, vs("x"), ts(4), ts(5), 2, 0, 1, vs("p"), 2, 0, ts(1), 0),
		evalBody(stamp, 1, ts(2), 1, 0, 0, ts(2), 0),
		evalBody(stamp, 4, vs("a"), vs("a"), vs("b"), vs("c"), 1, 0, 2, ts(0), 0),
		evalBody(stamp, 1, "w", 0),
		evalBody(stamp, 1, vs("a"), 1, 0, 0, ts(6), 0),
		evalBody(stamp, 1, ts(3), 1, -1, 0, ts(0), 0),
		evalBody(stamp, 2, vs("a"), vs("b"), 1, 0, 1, ts(0), 1, uint64(2)),
		evalBody(stamp, 2, vs("a"), vs("b"), 1, 0, 1, ts(0), 1, uint64(16)),
		evalBody(stamp, 2, vs("a"), vs("b"), 1, 0, 1, ts(0), 2, uint64(3), uint64(0)),
		evalBody(stamp, 1, vs("a"), 1, 0, 0, ts(0), 0, "!"),
		evalBody(stamp, 1, vs("a"), 1, 0, 0, ts(0), 1<<28),
		evalBody(stamp, 0, 0, 0),
		evalBody(stamp),
		{},
	} {
		f.Add(s)
	}
	n := d.Len()
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := wireReader{b: data}
		site, dictLen, dictFP := rd.u32(), rd.u32(), rd.u64()
		req, batch, err := rd.eval(site, dictLen)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<10+128*len(data)); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, more than %d", len(data), grew, bound)
		}
		if d.Len() != n {
			t.Fatalf("decoding %q added %d terms to the site's dictionary", data, d.Len()-n)
		}
		if err != nil {
			return
		}
		if !req.Keep.Within(len(req.Query.Verts)) {
			t.Fatalf("accepted keep %v over %d vertices", req.Keep, len(req.Query.Verts))
		}
		back := appendRequest(nil, req, batch, dictLen, dictFP)
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted %q, which encodes back to %q", data, back)
		}
	})
}
