package transport

// Client/server tests over real sockets (httptest): fault-free
// equivalence with the in-process channel path, retries under seeded
// chaos with exact metrics reconciliation, the frame-progress
// watchdog (mid-stream and before the first frame), cancellation
// draining the server, and the breaker failing fast against a dead site
// then recovering.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// newTestCluster builds one site holding two fragments of a simple
// <a_i> <p> <b_i> graph, split so a request streams from two graphs.
func newTestCluster(t *testing.T, triples int) (*cluster.Cluster, *rdf.Dict, *sparql.Graph) {
	t.Helper()
	d := rdf.NewDict()
	c := cluster.New(1, 2)
	g1, g2 := rdf.NewGraph(d), rdf.NewGraph(d)
	for i := 0; i < triples; i++ {
		g := g1
		if i%2 == 1 {
			g = g2
		}
		g.AddTerms(rdf.NewIRI(fmt.Sprintf("a%d", i)), rdf.NewIRI("p"), rdf.NewIRI(fmt.Sprintf("b%d", i)))
	}
	if err := c.Place(0, 1, g1); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(0, 2, g2); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(d, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	return c, d, q
}

func testRequest(q *sparql.Graph) cluster.EvalRequest {
	return cluster.EvalRequest{SiteID: 0, FragIDs: []int{1, 2}, Query: q}
}

// collector is a concurrency-safe sink accumulating a row multiset.
type collector struct {
	mu   sync.Mutex
	rows map[string]int
	n    int
}

func newCollector() *collector { return &collector{rows: map[string]int{}} }

func (rc *collector) sink(b *match.Bindings) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	w := len(b.Vars)
	for i := 0; i < b.Len(); i++ {
		rc.rows[fmt.Sprint(b.Rows[i*w:(i+1)*w])]++
		rc.n++
	}
	return nil
}

func (rc *collector) multiset() map[string]int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make(map[string]int, len(rc.rows))
	for k, v := range rc.rows {
		out[k] = v
	}
	return out
}

// oracle evaluates the request in-process and returns the expected row
// multiset.
func oracle(t *testing.T, c *cluster.Cluster, req cluster.EvalRequest, batch int) map[string]int {
	t.Helper()
	want := newCollector()
	for _, fid := range req.FragIDs {
		r := req
		r.FragIDs = []int{fid}
		if err := c.EvalStream(context.Background(), r, batch, want.sink); err != nil {
			t.Fatalf("oracle EvalStream: %v", err)
		}
	}
	return want.multiset()
}

func equalMultisets(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// checkInvariant asserts the metrics reconciliation documented on
// SiteMetrics: Attempts + FastFails == Calls + Retries.
func checkInvariant(t *testing.T, m cluster.SiteMetrics) {
	t.Helper()
	if m.Attempts+m.FastFails != m.Calls+m.Retries {
		t.Errorf("metrics do not reconcile: attempts %d + fastFails %d != calls %d + retries %d",
			m.Attempts, m.FastFails, m.Calls, m.Retries)
	}
}

func newSite(t *testing.T, c *cluster.Cluster, d *rdf.Dict, chaos *cluster.Chaos) (*SiteServer, *httptest.Server) {
	t.Helper()
	ss := NewSiteServer(ServerConfig{Cluster: c, Dict: d, Chaos: chaos})
	hs := httptest.NewServer(ss)
	t.Cleanup(hs.Close)
	return ss, hs
}

func TestEvalOverHTTPMatchesDirect(t *testing.T) {
	c, d, q := newTestCluster(t, 40)
	req := testRequest(q)
	want := oracle(t, c, req, 8)

	ss, hs := newSite(t, c, d, nil)
	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: d})
	got := newCollector()
	if err := cl.EvalStream(context.Background(), req, 8, got.sink); err != nil {
		t.Fatalf("EvalStream over HTTP: %v", err)
	}
	if !equalMultisets(got.multiset(), want) {
		t.Errorf("HTTP rows %v != direct rows %v", got.multiset(), want)
	}

	sm := ss.Metrics()
	if sm.Evals != 1 || sm.Batches == 0 || sm.Rows != 40 {
		t.Errorf("server metrics = %+v, want 1 eval, >0 batches, 40 rows", sm)
	}
	cm := cl.SiteMetrics()
	if cm.Calls != 1 || cm.Attempts != 1 || cm.Retries != 0 || cm.Failures != 0 {
		t.Errorf("client metrics = %+v, want one clean call", cm)
	}
	checkInvariant(t, cm)
}

// TestMaskedEvalOverHTTPMatchesDirect: a request whose Keep leaves
// vertices out travels with it, and the site process ships the rows the
// in-process site does — one witness ?z per binding of ?x and ?y, which
// the search binds first (<p> is the rarer predicate), where the unmasked
// request ships every ?z.
func TestMaskedEvalOverHTTPMatchesDirect(t *testing.T) {
	d := rdf.NewDict()
	c := cluster.New(1, 1)
	g := rdf.NewGraph(d)
	for s := 0; s < 4; s++ {
		for o := 0; o < 5; o++ {
			g.AddTerms(rdf.NewIRI(fmt.Sprintf("s%d", s)), rdf.NewIRI("p"), rdf.NewIRI(fmt.Sprintf("o%d", (s+o)%6)))
		}
	}
	for o := 0; o < 6; o++ {
		for z := 0; z < 5; z++ {
			g.AddTerms(rdf.NewIRI(fmt.Sprintf("o%d", o)), rdf.NewIRI("q"), rdf.NewIRI(fmt.Sprintf("z%d", z)))
		}
	}
	if err := c.Place(0, 1, g); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(d, `SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z . }`)
	req := cluster.EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: q, Parallelism: 1}
	full := oracle(t, c, req, 4)
	req.Keep = match.VertexMask{0}.Add(slices.IndexFunc(q.Verts, func(v sparql.Vertex) bool { return v.Var == "x" }))
	want := oracle(t, c, req, 4)

	_, hs := newSite(t, c, d, nil)
	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: d})
	got := newCollector()
	if err := cl.EvalStream(context.Background(), req, 4, got.sink); err != nil {
		t.Fatalf("EvalStream over HTTP: %v", err)
	}
	if !equalMultisets(got.multiset(), want) {
		t.Errorf("HTTP rows %v != direct rows %v", got.multiset(), want)
	}
	if got.n != 4*5 || len(full) != 4*5*5 {
		t.Errorf("the masked request shipped %d rows, the unmasked %d; want 20 of 100", got.n, len(full))
	}
}

// Constants travel as dictionary IDs, which name the same terms in the
// server's dictionary.
func TestQueryConstantRoundTrip(t *testing.T) {
	c, d, _ := newTestCluster(t, 10)
	q := sparql.MustParse(d, `SELECT ?x WHERE { ?x <p> <b3> . }`)
	req := testRequest(q)
	want := oracle(t, c, req, 4)

	_, hs := newSite(t, c, d, nil)
	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: d})
	got := newCollector()
	if err := cl.EvalStream(context.Background(), req, 4, got.sink); err != nil {
		t.Fatalf("EvalStream: %v", err)
	}
	if got.n != 1 || !equalMultisets(got.multiset(), want) {
		t.Errorf("rows = %v, want exactly %v", got.multiset(), want)
	}
}

// Dropped and errored requests are retried until the call succeeds, and
// the client's retry counter reconciles exactly with the number of
// faults the server injected.
func TestRetriesUnderChaos(t *testing.T) {
	c, d, q := newTestCluster(t, 40)
	req := testRequest(q)
	want := oracle(t, c, req, 8)

	chaos := cluster.NewChaos(cluster.ChaosConfig{Seed: 42, Drop: 0.25, Error: 0.15})
	_, hs := newSite(t, c, d, chaos)
	cl := NewSiteClient(ClientConfig{
		BaseURL: hs.URL, Site: 0, Dict: d,
		Retries: 16, Backoff: time.Millisecond,
		Breaker: BreakerConfig{Threshold: 1 << 20},
	})

	const calls = 15
	for i := 0; i < calls; i++ {
		got := newCollector()
		if err := cl.EvalStream(context.Background(), req, 8, got.sink); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !equalMultisets(got.multiset(), want) {
			t.Fatalf("call %d delivered %v, want %v", i, got.multiset(), want)
		}
	}

	cm := cl.SiteMetrics()
	checkInvariant(t, cm)
	counts := chaos.Counts()
	if cm.Retries != counts.Drops+counts.Errors {
		t.Errorf("client retries %d != injected drops %d + errors %d", cm.Retries, counts.Drops, counts.Errors)
	}
	if counts.Drops+counts.Errors == 0 {
		t.Error("chaos injected nothing; the test exercised no retries")
	}
	if cm.Failures != 0 || cm.FastFails != 0 {
		t.Errorf("failures %d fastFails %d, want 0/0 (retries should mask every fault)", cm.Failures, cm.FastFails)
	}
}

// attemptLog is what a site wrote in answer to one /eval request: the
// rows of its batch frames, and whether it closed the stream with a done
// frame.
type attemptLog struct {
	rows int
	done bool
}

// frameTap passes a site's response through, logging each frame the site
// writes (one frame per Write) into log under mu.
type frameTap struct {
	http.ResponseWriter
	mu  *sync.Mutex
	log *attemptLog
}

func (ft frameTap) Write(p []byte) (int, error) {
	ft.mu.Lock()
	switch p[0] {
	case frameBatch:
		ft.log.rows += int(le.Uint32(p[5:]))
	case frameDone:
		ft.log.done = true
	}
	ft.mu.Unlock()
	return ft.ResponseWriter.Write(p)
}

func (ft frameTap) Flush() { ft.ResponseWriter.(http.Flusher).Flush() }

// Mid-stream cuts tear the connection without a terminal frame, and the
// retry streams the answer again from its first batch. Each call delivers
// the fault-free rows as a set — the rows a torn attempt delivered arrive
// again, which the control site's dedup absorbs — and every row the site
// wrote; the client's retries equal the injected cuts; and the one
// attempt of each call the site finished carried the whole answer.
func TestRetryAfterCutRestreams(t *testing.T) {
	c, d, q := newTestCluster(t, 48)
	req := testRequest(q)
	want := oracle(t, c, req, 4)
	wantRows := 0
	for _, n := range want {
		wantRows += n
	}

	chaos := cluster.NewChaos(cluster.ChaosConfig{Seed: 7, Cut: 0.15})
	ss := NewSiteServer(ServerConfig{Cluster: c, Dict: d, Chaos: chaos})
	var (
		mu       sync.Mutex
		attempts []*attemptLog
	)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := &attemptLog{}
		mu.Lock()
		attempts = append(attempts, a)
		mu.Unlock()
		ss.ServeHTTP(frameTap{w, &mu, a}, r)
	}))
	defer hs.Close()
	cl := NewSiteClient(ClientConfig{
		BaseURL: hs.URL, Site: 0, Dict: d,
		Retries: 50, Backoff: 500 * time.Microsecond,
		Breaker: BreakerConfig{Threshold: 1 << 20},
	})

	repeated := 0
	for i := 0; i < 8; i++ {
		mu.Lock()
		first := len(attempts)
		mu.Unlock()
		got := newCollector()
		if err := cl.EvalStream(context.Background(), req, 4, got.sink); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		have := got.multiset()
		for row := range have {
			have[row] = 1
		}
		if !equalMultisets(have, want) {
			t.Fatalf("call %d delivered the rows %v, want the set %v", i, got.multiset(), want)
		}
		mu.Lock()
		call := attempts[first:]
		written := 0
		for k, a := range call {
			written += a.rows
			if last := k == len(call)-1; a.done != last || last && a.rows != wantRows {
				t.Errorf("call %d, attempt %d of %d: the site wrote %d rows (done %v); only the last attempt is finished, with all %d rows",
					i, k+1, len(call), a.rows, a.done, wantRows)
			}
		}
		mu.Unlock()
		if got.n != written {
			t.Errorf("call %d: the sink saw %d rows, the site wrote %d", i, got.n, written)
		}
		repeated += got.n - wantRows
	}

	cm := cl.SiteMetrics()
	checkInvariant(t, cm)
	counts := chaos.Counts()
	if counts.Cuts == 0 {
		t.Fatal("chaos cut nothing; no retry was exercised")
	}
	if cm.Retries != counts.Cuts {
		t.Errorf("client retries %d != injected cuts %d", cm.Retries, counts.Cuts)
	}
	if repeated == 0 {
		t.Error("no cut came after a delivered batch; no row was delivered twice")
	}
}

// A stream that stops producing frames is cut by the client-side
// progress watchdog and retried, well before any connection-level
// timeout.
func TestFrameTimeoutWatchdog(t *testing.T) {
	c, d, q := newTestCluster(t, 20)
	req := testRequest(q)
	want := oracle(t, c, req, 8)

	ss := NewSiteServer(ServerConfig{Cluster: c, Dict: d})
	var evals atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/eval") && evals.Add(1) == 1 {
			// First attempt: open the stream, then produce nothing.
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
			return
		}
		ss.ServeHTTP(w, r)
	}))
	defer hs.Close()

	cl := NewSiteClient(ClientConfig{
		BaseURL: hs.URL, Site: 0, Dict: d,
		Retries: 2, Backoff: time.Millisecond, FrameTimeout: 100 * time.Millisecond,
	})
	got := newCollector()
	start := time.Now()
	if err := cl.EvalStream(context.Background(), req, 8, got.sink); err != nil {
		t.Fatalf("EvalStream: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("call took %v; the watchdog should have cut the stalled stream at ~100ms", elapsed)
	}
	if !equalMultisets(got.multiset(), want) {
		t.Errorf("rows %v != %v", got.multiset(), want)
	}
	cm := cl.SiteMetrics()
	if cm.Retries == 0 {
		t.Error("no retry recorded; the stalled first attempt was not cut")
	}
	checkInvariant(t, cm)
}

// A site that accepts the request and never answers — not even the
// response headers — is cut by the same watchdog, which runs from the
// request, and the retry succeeds long before the straggler gives up.
func TestFrameTimeoutBeforeFirstFrame(t *testing.T) {
	c, d, q := newTestCluster(t, 20)
	req := testRequest(q)
	want := oracle(t, c, req, 8)

	ss := NewSiteServer(ServerConfig{Cluster: c, Dict: d})
	var evals atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/eval") && evals.Add(1) == 1 {
			// Straggler: hold the first request until it is abandoned
			// (or a generous deadline, so the test can't hang). The body
			// must be drained first or the server never notices the
			// abandonment (net/http only watches the connection once the
			// request body has been consumed).
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
			return
		}
		ss.ServeHTTP(w, r)
	}))
	defer hs.Close()

	cl := NewSiteClient(ClientConfig{
		BaseURL: hs.URL, Site: 0, Dict: d,
		Retries: 1, Backoff: time.Millisecond, FrameTimeout: 100 * time.Millisecond,
	})
	got := newCollector()
	start := time.Now()
	if err := cl.EvalStream(context.Background(), req, 8, got.sink); err != nil {
		t.Fatalf("EvalStream: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("call took %v; the watchdog should have cut the silent attempt at ~100ms", elapsed)
	}
	if !equalMultisets(got.multiset(), want) {
		t.Errorf("rows %v != %v", got.multiset(), want)
	}
	cm := cl.SiteMetrics()
	if cm.Retries != 1 || cm.Failures != 0 {
		t.Errorf("retries %d failures %d, want 1/0 (one cut, then a clean retry)", cm.Retries, cm.Failures)
	}
	checkInvariant(t, cm)
}

// Cancelling the caller's context mid-stream aborts the HTTP request,
// and the server's in-flight gauge drains: cancellation propagates end
// to end instead of leaking an abandoned evaluation.
func TestCancelMidStreamDrainsServer(t *testing.T) {
	c, d, q := newTestCluster(t, 48)
	req := testRequest(q)

	// Every batch stalls, so the stream is reliably in flight when the
	// caller gives up.
	chaos := cluster.NewChaos(cluster.ChaosConfig{
		Seed: 3, DelayProb: 1,
		StragglerDelay: cluster.Delay{PerMessage: 30 * time.Millisecond},
	})
	ss, hs := newSite(t, c, d, chaos)
	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: d, Retries: 1})

	ctx, cancel := context.WithCancel(context.Background())
	firstBatch := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- cl.EvalStream(ctx, req, 2, func(b *match.Bindings) error {
			once.Do(func() { close(firstBatch) })
			return nil
		})
	}()

	select {
	case <-firstBatch:
	case <-time.After(10 * time.Second):
		t.Fatal("no batch arrived before the cancel")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("EvalStream after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("EvalStream did not return after cancel")
	}

	deadline := time.Now().Add(5 * time.Second)
	for ss.Metrics().ActiveEvals != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still has %d active evals after client cancel", ss.Metrics().ActiveEvals)
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkInvariant(t, cl.SiteMetrics())
}

// TestCancelDuringBatchStallEndsTheStream: a caller that leaves while the
// site stalls a batch (an injected straggler delay) ends the stream there,
// without a frame more. The chaos delay count tells when the handler has
// reached the batch's stall, so the cancel always lands inside it.
func TestCancelDuringBatchStallEndsTheStream(t *testing.T) {
	c, d, q := newTestCluster(t, 600)
	// The request's stall costs nothing; a batch of 256 two-column rows,
	// 2 KB, stalls two hours. One matcher worker, so that the first batch
	// is a full one: a second worker's last batch, under 1 KB, would stall
	// for nothing and could be written first.
	chaos := cluster.NewChaos(cluster.ChaosConfig{DelayProb: 1, StragglerDelay: cluster.Delay{PerKB: time.Hour}})
	ss := NewSiteServer(ServerConfig{Cluster: c, Dict: d, Chaos: chaos})
	req := testRequest(q)
	req.Parallelism = 1
	body := appendRequest(nil, req, 256, d.Len(), d.Fingerprint(d.Len()))
	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ss.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/eval", bytes.NewReader(body)).WithContext(ctx))
	}()
	for deadline := time.Now().Add(10 * time.Second); chaos.Counts().Delays < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first batch never stalled")
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler did not return after the cancel")
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, hdrOf("x", "y")) || ss.Metrics().Batches != 0 {
		t.Fatalf("after the cancel the site wrote %q and counts %d batches; want the header alone", got, ss.Metrics().Batches)
	}
}

// A dead site exhausts the retry budget once, then the breaker opens
// and subsequent calls fail fast without touching the network; after
// the site recovers and the cooldown passes, a half-open probe closes
// the circuit again.
func TestBreakerFailFastAndRecovery(t *testing.T) {
	c, d, q := newTestCluster(t, 20)
	req := testRequest(q)
	want := oracle(t, c, req, 8)

	ss := NewSiteServer(ServerConfig{Cluster: c, Dict: d})
	var healthy atomic.Bool
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "site down", http.StatusServiceUnavailable)
			return
		}
		ss.ServeHTTP(w, r)
	}))
	defer hs.Close()

	cl := NewSiteClient(ClientConfig{
		BaseURL: hs.URL, Site: 0, Dict: d,
		Retries: 3, Backoff: time.Millisecond,
		Breaker: BreakerConfig{Threshold: 4, Cooldown: 50 * time.Millisecond},
	})

	// Call 1: four failed attempts burn the breaker threshold.
	err := cl.EvalStream(context.Background(), req, 8, newCollector().sink)
	if !errors.Is(err, cluster.ErrSiteUnavailable) {
		t.Fatalf("call against dead site = %v, want ErrSiteUnavailable", err)
	}
	if state, _ := cl.breaker.status(); state != "open" {
		t.Fatalf("breaker = %q after exhausted retries, want open", state)
	}

	// Call 2: fail fast — no HTTP traffic.
	before := hits.Load()
	err = cl.EvalStream(context.Background(), req, 8, newCollector().sink)
	if !errors.Is(err, cluster.ErrSiteUnavailable) {
		t.Fatalf("fast-fail call = %v, want ErrSiteUnavailable", err)
	}
	if hits.Load() != before {
		t.Errorf("open breaker still sent %d requests", hits.Load()-before)
	}
	cm := cl.SiteMetrics()
	if cm.FastFails != 1 {
		t.Errorf("fastFails = %d, want 1", cm.FastFails)
	}
	// Failures counts calls, not attempts: the exhausted call and the
	// fast-failed one.
	if cm.Failures != 2 {
		t.Errorf("failures = %d, want 2 (one per failed call)", cm.Failures)
	}
	checkInvariant(t, cm)

	// Recovery: site back up, cooldown over, the probe closes the circuit.
	healthy.Store(true)
	time.Sleep(80 * time.Millisecond)
	got := newCollector()
	if err := cl.EvalStream(context.Background(), req, 8, got.sink); err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
	if !equalMultisets(got.multiset(), want) {
		t.Errorf("post-recovery rows %v != %v", got.multiset(), want)
	}
	cm = cl.SiteMetrics()
	if cm.BreakerState != "closed" || cm.BreakerOpens != 1 {
		t.Errorf("breaker %q opens %d, want closed/1", cm.BreakerState, cm.BreakerOpens)
	}
	checkInvariant(t, cm)
}

// A site that never listens is unavailable: the error carries the
// sentinel the engine's partial-results mode keys on.
func TestUnreachableSiteSentinel(t *testing.T) {
	_, d, q := newTestCluster(t, 4)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cl := NewSiteClient(ClientConfig{BaseURL: dead.URL, Site: 0, Dict: d, Retries: 1, Backoff: time.Millisecond})
	err := cl.EvalStream(context.Background(), testRequest(q), 8, newCollector().sink)
	if !errors.Is(err, cluster.ErrSiteUnavailable) {
		t.Fatalf("err = %v, want cluster.ErrSiteUnavailable", err)
	}
}
