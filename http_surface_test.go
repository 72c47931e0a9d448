package rdffrag

// HTTP-surface regression tests for this PR's bugfix sweep: the
// overwrite endpoint (PUT /update and POST ?op=overwrite with a "---"
// framed body), the X-TTL header, /healthz flipping to 503 once a drain
// begins, oversized bodies failing whole with 413 (the old LimitReader
// silently truncated them), and response-body write failures landing in
// the response_write_errors metric.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

func TestHandleUpdateOverwriteHTTP(t *testing.T) {
	dep := deploySoak(t, 3, 30)
	srv := dep.StartServer(ServerConfig{Workers: 2, SweepInterval: -1})
	defer srv.Close()

	// Seed v1 through the overwrite endpoint itself (empty delete side).
	body := "---\n" + owDoc(1)
	rec := doUpdate(srv, http.MethodPut, "/update", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT seed: status %d, body %s", rec.Code, rec.Body)
	}
	var res struct {
		Added   int `json:"added"`
		Deleted int `json:"deleted"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Added != 2 {
		t.Fatalf("PUT seed response %s (err %v), want added=2", rec.Body, err)
	}

	// The swap via PUT: delete-set, separator, insert-set.
	rec = doUpdate(srv, http.MethodPut, "/update", owDoc(1)+"---\n"+owDoc(2), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT swap: status %d, body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Added != 2 || res.Deleted != 2 {
		t.Fatalf("PUT swap response %s (err %v), want added=2 deleted=2", rec.Body, err)
	}
	if rows := queryRows(t, srv, owProbe); len(rows) != 1 || !strings.Contains(rows[0], "ow v2") {
		t.Fatalf("state after PUT swap: %v", rows)
	}

	// POST ?op=overwrite is the same operation.
	rec = doUpdate(srv, http.MethodPost, "/update?op=overwrite", owDoc(2)+"---\n"+owDoc(3), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST op=overwrite: status %d, body %s", rec.Code, rec.Body)
	}
	if rows := queryRows(t, srv, owProbe); len(rows) != 1 || !strings.Contains(rows[0], "ow v3") {
		t.Fatalf("state after POST overwrite: %v", rows)
	}

	// Client mistakes are 400s: a missing separator line, an op
	// contradicting the PUT method, an empty overwrite.
	for name, tc := range map[string]struct{ method, target, body string }{
		"missing-separator": {http.MethodPut, "/update", owDoc(3)},
		"contradicting-op":  {http.MethodPut, "/update?op=delete", owDoc(3) + "---\n"},
		"both-sides-empty":  {http.MethodPut, "/update", "---\n"},
		"garbage-side":      {http.MethodPut, "/update", "<a> <b> junk\n---\n" + owDoc(4)},
	} {
		if rec := doUpdate(srv, tc.method, tc.target, tc.body, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
	}
	// None of the rejected requests may have moved state.
	if rows := queryRows(t, srv, owProbe); len(rows) != 1 || !strings.Contains(rows[0], "ow v3") {
		t.Fatalf("rejected overwrites changed state: %v", rows)
	}
}

func TestHandleUpdateTTLHeader(t *testing.T) {
	dep := deploySoak(t, 3, 30)
	srv := dep.StartServer(ServerConfig{Workers: 2, SweepInterval: -1})
	defer srv.Close()

	// A bad X-TTL is rejected before the body is touched.
	req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(owDoc(1)))
	req.Header.Set("X-TTL", "soon")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad X-TTL: status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	req = httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(owDoc(1)))
	req.Header.Set("X-TTL", "-5s")
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative X-TTL: status %d, want 400", rec.Code)
	}

	// A valid X-TTL stamps the batch: after the TTL elapses, one Sweep
	// call deletes exactly that batch.
	req = httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(owDoc(1)))
	req.Header.Set("X-TTL", "1ms")
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("X-TTL insert: status %d, body %s", rec.Code, rec.Body)
	}
	if rows := queryRows(t, srv, owProbe); len(rows) != 1 {
		t.Fatalf("TTL insert not visible: %v", rows)
	}
	time.Sleep(5 * time.Millisecond)
	if n := srv.Sweep(); n != 2 {
		t.Fatalf("Sweep removed %d triples, want 2", n)
	}
	if rows := queryRows(t, srv, owProbe); len(rows) != 0 {
		t.Fatalf("expired triples still visible: %v", rows)
	}

	// The longest Go duration is a valid X-TTL. Its deadline, some three
	// centuries out, lies past what Unix nanoseconds can hold; it must
	// still be in the future, not overflow into the past and sweep the
	// batch at once.
	req = httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(owDoc(2)))
	req.Header.Set("X-TTL", "2562047h")
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("X-TTL 2562047h: status %d, body %s", rec.Code, rec.Body)
	}
	if n := srv.Sweep(); n != 0 {
		t.Fatalf("Sweep removed %d triples of a batch stamped to expire centuries out", n)
	}
	if rows := queryRows(t, srv, owProbe); len(rows) != 1 {
		t.Fatalf("far-TTL insert not visible: %v", rows)
	}
	for _, at := range dep.expiry {
		if !at.After(time.Now().AddDate(290, 0, 0)) {
			t.Fatalf("the 2562047h batch is due at %v", at)
		}
	}
}

// TestHealthzDraining: /healthz answers ok while serving, 503 once
// MarkDraining is called (the SIGTERM path) and after Close.
func TestHealthzDraining(t *testing.T) {
	dep := deploySoak(t, 3, 30)
	srv := dep.StartServer(ServerConfig{Workers: 2})

	probe := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code
	}
	if code := probe(); code != http.StatusOK {
		t.Fatalf("healthy server: /healthz %d, want 200", code)
	}
	srv.MarkDraining()
	if code := probe(); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server: /healthz %d, want 503", code)
	}
	srv.Close()
	if code := probe(); code != http.StatusServiceUnavailable {
		t.Fatalf("closed server: /healthz %d, want 503", code)
	}
}

// slopReader yields an endless repetition of line — a way to stream an
// oversized request body without materializing it first.
type slopReader struct {
	line []byte
	off  int
}

func (r *slopReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.line[r.off]
		r.off = (r.off + 1) % len(r.line)
	}
	return len(p), nil
}

// TestQueryBodyTooLarge413: a /query body past 1 MiB fails whole with
// 413. The old io.LimitReader silently parsed the truncated prefix —
// which could be a complete, valid, different query.
func TestQueryBodyTooLarge413(t *testing.T) {
	dep := deploySoak(t, 3, 30)
	srv := dep.StartServer(ServerConfig{Workers: 2})
	defer srv.Close()

	// A valid query padded past the cap with comment lines: under the old
	// truncation bug this parsed and answered 200.
	big := "SELECT ?x ?n WHERE { ?x <name> ?n . }\n" + strings.Repeat("# padding\n", (1<<20)/10)
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(big))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query: status %d, want 413 (body %.200s)", rec.Code, rec.Body)
	}
	// The same query under the cap still answers.
	req = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("SELECT ?x ?n WHERE { ?x <name> ?n . }"))
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("small query: status %d, body %.200s", rec.Code, rec.Body)
	}
}

// TestUpdateBodyTooLarge413: an /update body past 64 MiB answers 413
// with nothing applied and nothing logged.
func TestUpdateBodyTooLarge413(t *testing.T) {
	d, dep := bootstrapped(t, DurabilityConfig{Dir: t.TempDir(), Sync: "always"})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})
	defer srv.Close()

	seqBefore := srv.Metrics().WAL.LastSeq
	body := io.LimitReader(&slopReader{line: []byte("<TooBig> <name> \"x\" .\n")}, 64<<20+64)
	req := httptest.NewRequest(http.MethodPost, "/update", body)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized update: status %d, want 413 (body %.200s)", rec.Code, rec.Body)
	}
	if srv.Metrics().WAL.LastSeq != seqBefore {
		t.Fatalf("oversized update logged: WAL seq %d -> %d", seqBefore, srv.Metrics().WAL.LastSeq)
	}
	res, err := srv.Query(context.Background(), `SELECT ?n WHERE { <TooBig> <name> ?n . }`)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("oversized update partially applied: rows %v, err %v", res, err)
	}
}

// cutResponse is a ResponseWriter whose connection dies after
// cutWriter.limit body bytes — with the zero limit, like a client that
// disconnected between the status line and the response body.
type cutResponse struct {
	h http.Header
	cutWriter
}

func (w *cutResponse) Header() http.Header        { return w.h }
func (w *cutResponse) WriteHeader(statusCode int) {}

// TestResponseWriteErrorsCounted: a response body that fails to write
// cannot change the already-sent status, so it must surface in the
// response_write_errors metric instead of being discarded — once per
// response, however many chunks a multi-megabyte answer had left, and
// without another Write reaching the dead connection.
func TestResponseWriteErrorsCounted(t *testing.T) {
	dep := deploySoak(t, 3, 400)
	srv := dep.StartServer(ServerConfig{Workers: 2})
	defer srv.Close()

	target := func(q string) string { return "/query?q=" + url.QueryEscape(q) }
	for _, target := range []string{target("SELECT ?x ?n WHERE { ?x <name> ?n . }"), "/metrics"} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		srv.Handler().ServeHTTP(&cutResponse{h: make(http.Header)}, req)
	}

	// 5 interests x 80 x 80 people sharing one: ~7 MB of JSON.
	pairs := target("SELECT ?x ?n ?y ?m WHERE { ?x <interest> ?i . ?y <interest> ?i . ?x <name> ?n . ?y <name> ?m . }")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, pairs, nil))
	if rec.Body.Len() < 2<<20 {
		t.Fatalf("pairs answer is %d bytes, want multi-megabyte", rec.Body.Len())
	}
	cut := &cutResponse{h: make(http.Header), cutWriter: cutWriter{limit: 1 << 20}}
	srv.Handler().ServeHTTP(cut, httptest.NewRequest(http.MethodGet, pairs, nil))
	if !cut.failed || cut.lateCalls != 0 {
		t.Fatalf("writer failed=%v after %d writes, %d more followed; want the failure to end the response", cut.failed, cut.calls, cut.lateCalls)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m struct {
		ResponseWriteErrors uint64 `json:"response_write_errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics decode: %v (body %.200s)", err, rec.Body)
	}
	if m.ResponseWriteErrors != 3 {
		t.Fatalf("response_write_errors = %d, want 3 (query body + metrics body + cut multi-megabyte body)", m.ResponseWriteErrors)
	}
}

// TestResultFormatNegotiation: ?format= wins and must name a format;
// otherwise the first supported media type of the Accept list decides,
// parameters ignored; JSON is the default.
func TestResultFormatNegotiation(t *testing.T) {
	dep := deploySoak(t, 2, 20)
	srv := dep.StartServer(ServerConfig{Workers: 1})
	defer srv.Close()
	q := "q=" + url.QueryEscape("SELECT ?x ?n WHERE { ?x <name> ?n . }")
	const jsonType = "application/sparql-results+json"
	for _, tc := range []struct {
		name, params string
		accept       []string
		contentType  string
	}{
		{name: "default", contentType: jsonType},
		{name: "format json", params: "&format=json", accept: []string{"text/csv"}, contentType: jsonType},
		{name: "format csv", params: "&format=csv", contentType: "text/csv"},
		{name: "format tsv beats Accept", params: "&format=tsv", accept: []string{"text/csv"}, contentType: "text/tab-separated-values"},
		{name: "exact Accept", accept: []string{"text/csv"}, contentType: "text/csv"},
		{name: "list with wildcard fallback", accept: []string{"text/csv, */*;q=0.1"}, contentType: "text/csv"},
		{name: "parameters and case", accept: []string{"Text/Tab-Separated-Values; charset=utf-8;q=0.9, application/json"}, contentType: "text/tab-separated-values"},
		{name: "unsupported types skipped", accept: []string{"text/html,application/xhtml+xml, text/csv;q=0.5"}, contentType: "text/csv"},
		{name: "wildcard first", accept: []string{"*/*, text/csv"}, contentType: jsonType},
		{name: "second header line", accept: []string{"text/html", "text/tab-separated-values"}, contentType: "text/tab-separated-values"},
		{name: "nothing supported", accept: []string{"image/png"}, contentType: jsonType},
	} {
		req := httptest.NewRequest(http.MethodGet, "/query?"+q+tc.params, nil)
		for _, a := range tc.accept {
			req.Header.Add("Accept", a)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != tc.contentType {
			t.Errorf("%s: status %d Content-Type %q, want 200 %q", tc.name, rec.Code, rec.Header().Get("Content-Type"), tc.contentType)
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?"+q+"&format=xml", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown ?format=: status %d, want 400 (body %q)", rec.Code, rec.Body)
	}
}

// TestSplitOverwriteBody: the "---" separator framing, including CRLF
// line endings, leading separator, and a separator-free body.
func TestSplitOverwriteBody(t *testing.T) {
	for name, tc := range map[string]struct {
		body, del, ins string
		ok             bool
	}{
		"plain":          {"a\n---\nb\n", "a\n", "b\n", true},
		"leading-sep":    {"---\nb\n", "", "b\n", true},
		"trailing-sep":   {"a\n---\n", "a\n", "", true},
		"crlf-sep":       {"a\r\n---\r\nb\r\n", "a\r\n", "b\r\n", true},
		"sep-only":       {"---", "", "", true},
		"first-sep-wins": {"a\n---\nb\n---\nc\n", "a\n", "b\n---\nc\n", true},
		"no-sep":         {"a\nb\n", "", "", false},
		"dashes-inline":  {"a --- b\n", "", "", false},
	} {
		del, ins, ok := splitOverwriteBody(tc.body)
		if ok != tc.ok || del != tc.del || ins != tc.ins {
			t.Errorf("%s: splitOverwriteBody(%q) = (%q, %q, %v), want (%q, %q, %v)",
				name, tc.body, del, ins, ok, tc.del, tc.ins, tc.ok)
		}
	}
}
