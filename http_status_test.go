package rdffrag

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/cluster"
)

// TestHTTPStatusPerErrorClass: /query and /update answer each class of
// error with one status, the same on both endpoints: 413 for a body over
// the cap, 400 for an unparsable query or batch, 503 for overload and
// for a closed server, 504 for a passed deadline. A closed /query once
// answered 500 while a closed /update answered 503.
func TestHTTPStatusPerErrorClass(t *testing.T) {
	dep := deploySoak(t, 3, 30)
	// Every site call stalls on the simulated network until its query's
	// context ends: the cases below that reach a site carry a context
	// that has ended or will be cancelled.
	dep.cluster.Latency = cluster.Delay{PerMessage: time.Hour}
	srv := dep.StartServer(ServerConfig{Workers: 1, QueueDepth: 1})
	defer srv.Close()

	const query = `SELECT ?x ?n WHERE { ?x <name> ?n . }`
	const batch = "<StatusS> <name> \"S\" .\n"
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	type request struct {
		method, target string
		body           io.Reader
		ctx            context.Context
	}
	check := func(name string, req request, want int, wantBody string) {
		t.Helper()
		r := httptest.NewRequest(req.method, req.target, req.body)
		if req.ctx != nil {
			r = r.WithContext(req.ctx)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d (body %.200s)", name, rec.Code, want, rec.Body)
		}
		if wantBody != "" && strings.TrimSpace(rec.Body.String()) != wantBody {
			t.Errorf("%s: body %q, want %q", name, rec.Body, wantBody)
		}
	}
	slop := func(line string, n int64) io.Reader {
		return io.LimitReader(&slopReader{line: []byte(line)}, n)
	}

	for _, tc := range []struct {
		name string
		req  request
		want int
	}{
		{"query over the cap", request{http.MethodPost, "/query", slop("# padding\n", 1<<20+64), nil}, http.StatusRequestEntityTooLarge},
		{"update over the cap", request{http.MethodPost, "/update", slop(batch, 64<<20+64), nil}, http.StatusRequestEntityTooLarge},
		{"unparsable query", request{http.MethodPost, "/query", strings.NewReader("SELECT ?x WHERE { ?x"), nil}, http.StatusBadRequest},
		{"unparsable batch", request{http.MethodPost, "/update", strings.NewReader("<a> <b> nonsense\n"), nil}, http.StatusBadRequest},
		{"query past its deadline", request{http.MethodPost, "/query", strings.NewReader(query), expired}, http.StatusGatewayTimeout},
		{"update past its deadline", request{http.MethodPost, "/update", strings.NewReader(batch), expired}, http.StatusGatewayTimeout},
	} {
		check(tc.name, tc.req, tc.want, "")
	}

	// Overload: the one worker stalls on the simulated network and the
	// one queue slot holds the next query, so admission refuses a third.
	// Updates are not admission-queued, so only /query can be overloaded.
	stalled, unstall := context.WithCancel(context.Background())
	defer unstall()
	done := make(chan struct{}, 2)
	submit := func() {
		go func() {
			srv.Query(stalled, query)
			done <- struct{}{}
		}()
	}
	waitFor := func(what string, ok func(ServerMetrics) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(srv.Metrics()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the server to go idle", func(m ServerMetrics) bool { return m.InFlight == 0 && m.QueueDepth == 0 })
	submit()
	waitFor("the worker to take a query", func(m ServerMetrics) bool { return m.InFlight == 1 })
	submit()
	waitFor("the queue to fill", func(m ServerMetrics) bool { return m.QueueDepth == 1 })
	check("overloaded query", request{http.MethodPost, "/query", strings.NewReader(query), nil},
		http.StatusServiceUnavailable, "server overloaded, retry later")
	unstall()
	<-done
	<-done

	srv.Close()
	check("query after Close", request{http.MethodPost, "/query", strings.NewReader(query), nil}, http.StatusServiceUnavailable, "")
	check("update after Close", request{http.MethodPost, "/update", strings.NewReader(batch), nil}, http.StatusServiceUnavailable, "")
}
