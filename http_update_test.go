package rdffrag

// Status-code regression tests for the /update endpoint. The handler
// once collapsed every error to 400; these pin one response class per
// failure mode so a busy or broken server is never reported as a client
// mistake: 400 only for the client's own errors (unparsable N-Triples,
// bad op), 503 for shutdown/overload, 501 for a server without an update
// sink, 5xx timeouts for deadline/cancel, and 500 for internal failures
// such as a write-ahead log that rejects appends.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/serve"
)

func updateTestServer(t *testing.T) *Server {
	t.Helper()
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	return dep.StartServer(ServerConfig{Workers: 2})
}

// doUpdate drives the handler directly so tests can control the request
// context (httptest servers always hand handlers a live context).
func doUpdate(srv *Server, method, target, body string, ctx context.Context) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func TestHandleUpdateStatusCodes(t *testing.T) {
	srv := updateTestServer(t)
	defer srv.Close()

	insert := "<HTTP_S> <name> \"Http S\" .\n"

	// 200: a good insert, then a good delete through both spellings.
	rec := doUpdate(srv, http.MethodPost, "/update", insert, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d, body %s", rec.Code, rec.Body)
	}
	var res struct {
		Added   int `json:"added"`
		Deleted int `json:"deleted"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Added != 1 {
		t.Fatalf("insert response %s (err %v), want added=1", rec.Body, err)
	}
	rec = doUpdate(srv, http.MethodPost, "/update?op=delete", insert, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("op=delete: status %d, body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Deleted != 1 {
		t.Fatalf("op=delete response %s (err %v), want deleted=1", rec.Body, err)
	}
	doUpdate(srv, http.MethodPost, "/update", insert, nil)
	rec = doUpdate(srv, http.MethodDelete, "/update", insert, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE method: status %d, body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Deleted != 1 {
		t.Fatalf("DELETE response %s (err %v), want deleted=1", rec.Body, err)
	}

	// 400: only the client's own mistakes.
	for name, tc := range map[string]struct{ method, target, body string }{
		"garbage-insert":   {http.MethodPost, "/update", "<a> <b> nonsense\n"},
		"garbage-delete":   {http.MethodPost, "/update?op=delete", "<a> <b> nonsense\n"},
		"empty-batch":      {http.MethodPost, "/update", "# just a comment\n"},
		"unknown-op":       {http.MethodPost, "/update?op=upsert", insert},
		"contradicting-op": {http.MethodDelete, "/update?op=insert", insert},
	} {
		if rec := doUpdate(srv, tc.method, tc.target, tc.body, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
	}

	// 405: not an update verb at all.
	if rec := doUpdate(srv, http.MethodGet, "/update", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}

	// 504 / 408: the client's deadline or disconnect, never a 400.
	expired, cancelExp := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExp()
	if rec := doUpdate(srv, http.MethodPost, "/update", insert, expired); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired deadline: status %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := doUpdate(srv, http.MethodPost, "/update", insert, canceled); rec.Code != http.StatusRequestTimeout {
		t.Errorf("canceled: status %d, want 408 (body %s)", rec.Code, rec.Body)
	}
}

// TestHandleUpdateClosedServer503: shutdown is a retryable 5xx — the
// regression this file exists for reported it as the client's fault.
func TestHandleUpdateClosedServer503(t *testing.T) {
	srv := updateTestServer(t)
	srv.Close()
	rec := doUpdate(srv, http.MethodPost, "/update", "<S> <name> \"S\" .\n", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed server: status %d, want 503 (body %s)", rec.Code, rec.Body)
	}
}

// TestHandleUpdateNoSink501: a server constructed without an update sink
// reports the capability gap, not a bad request.
func TestHandleUpdateNoSink501(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	srv := &Server{dep: dep, inner: serve.New(dep.engine, serve.Config{})}
	defer srv.Close()
	rec := doUpdate(srv, http.MethodPost, "/update", "<S> <name> \"S\" .\n", nil)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("no sink: status %d, want 501 (body %s)", rec.Code, rec.Body)
	}
}

// TestHandleUpdateWALFailure500: a durable server whose WAL rejects the
// append must answer 500 — the batch was never wrong, the server is —
// for inserts and deletes alike.
func TestHandleUpdateWALFailure500(t *testing.T) {
	d, dep := bootstrapped(t, DurabilityConfig{Dir: t.TempDir(), Sync: "always"})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})
	defer srv.Close()

	// Seed a triple while the log is healthy so the delete has a target.
	if rec := doUpdate(srv, http.MethodPost, "/update", "<WalS> <name> \"Wal S\" .\n", nil); rec.Code != http.StatusOK {
		t.Fatalf("seed insert: status %d, body %s", rec.Code, rec.Body)
	}

	// Poison the log: every further append fails, so acks must stop.
	d.log.Close()
	rec := doUpdate(srv, http.MethodPost, "/update", "<WalT> <name> \"Wal T\" .\n", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("insert on poisoned WAL: status %d, want 500 (body %s)", rec.Code, rec.Body)
	}
	rec = doUpdate(srv, http.MethodDelete, "/update", "<WalS> <name> \"Wal S\" .\n", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("delete on poisoned WAL: status %d, want 500 (body %s)", rec.Code, rec.Body)
	}
	// Nothing un-logged may have mutated state: the failed insert's
	// subject must be absent and the failed delete's target still present.
	res, err := srv.Query(context.Background(), `SELECT ?n WHERE { <WalS> <name> ?n . }`)
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("delete applied despite failed WAL append: rows %v, err %v", res, err)
	}
	res, err = srv.Query(context.Background(), `SELECT ?n WHERE { <WalT> <name> ?n . }`)
	if err != nil || len(res.Rows) != 0 {
		t.Errorf("insert applied despite failed WAL append: rows %v, err %v", res, err)
	}
}
