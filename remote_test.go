package rdffrag

// Networked-deployment tests: a deployment whose sites are served over
// HTTP must answer exactly like the in-process one, degrade gracefully
// (or strictly) when sites die, propagate client disconnects into
// remote evaluations, and survive a deterministic fault-injection soak
// with results equal to the fault-free oracle.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/sparql"
)

// soakNT generates n people starting at offset: a <knows> chain plus
// <name>, <interest> and (for every 7th person) a cold <photo> triple.
// Deterministic, so a fragment-host process rebuilding from the same
// text assigns identical dictionary IDs.
func soakNT(n, offset int) string {
	var b strings.Builder
	for i := offset; i < offset+n; i++ {
		fmt.Fprintf(&b, "<P%d> <knows> <P%d> .\n", i, i+1)
		fmt.Fprintf(&b, "<P%d> <name> \"Person %d\" .\n", i, i)
		fmt.Fprintf(&b, "<P%d> <interest> <I%d> .\n", i, i%5)
		if i%7 == 0 {
			fmt.Fprintf(&b, "<P%d> <photo> <img%d> .\n", i, i)
		}
	}
	return b.String()
}

var soakWorkload = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <interest> ?i . }`,
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <interest> ?i . }`,
	`SELECT ?x ?y WHERE { ?x <knows> ?y . ?y <interest> <I2> . }`,
	`SELECT ?x ?y WHERE { ?x <knows> ?y . ?y <interest> <I2> . }`,
	`SELECT ?x ?n WHERE { ?x <knows> ?y . ?x <name> ?n . }`,
}

func deploySoak(t *testing.T, sites, people int) *Deployment {
	t.Helper()
	db := Open(Config{Sites: sites, MinSupport: 0.2})
	if _, err := db.LoadNTriples(strings.NewReader(soakNT(people, 0))); err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	dep, err := db.Deploy(soakWorkload)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return dep
}

// allRemote maps every site of the deployment to one base URL (tests
// serve all sites from a single fragment-host handler).
func allRemote(dep *Deployment, baseURL string) map[int]string {
	m := make(map[int]string, len(dep.cluster.Sites))
	for i := range dep.cluster.Sites {
		m[i] = baseURL
	}
	return m
}

// sameRows reports whether two answers hold the same rows, in any order.
func sameRows(a, b *Result) bool { return slices.Equal(sortedRows(a), sortedRows(b)) }

// Queries answered through networked sites match the in-process answers
// exactly, clean results (not flagged partial), for every workload query.
func TestRemoteSiteEquivalence(t *testing.T) {
	dep := deploySoak(t, 3, 60)

	oracle := make([]*Result, len(soakWorkload))
	for i, q := range soakWorkload {
		res, err := dep.Query(q)
		if err != nil {
			t.Fatalf("oracle query %d: %v", i, err)
		}
		oracle[i] = res
	}

	site := httptest.NewServer(dep.SiteHandler(SiteConfig{}))
	defer site.Close()
	srv := dep.StartServer(ServerConfig{
		Workers: 4,
		Remote:  RemoteConfig{Sites: allRemote(dep, site.URL), Retries: 2, Backoff: time.Millisecond},
	})
	defer srv.Close()

	for i, q := range soakWorkload {
		res, err := srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("remote query %d: %v", i, err)
		}
		if res.Stats.Partial {
			t.Errorf("query %d flagged partial with all sites healthy", i)
		}
		if !sameRows(res, oracle[i]) {
			t.Errorf("query %d: remote rows %v != in-process rows %v", i, res.Rows, oracle[i].Rows)
		}
	}

	// Every remote client reports, and the counters reconcile.
	for _, sm := range srv.Metrics().Sites {
		if sm.Attempts+sm.FastFails != sm.Calls+sm.Retries {
			t.Errorf("site %d metrics do not reconcile: %+v", sm.Site, sm)
		}
		if sm.Failures != 0 {
			t.Errorf("site %d reports %d failures on a healthy network", sm.Site, sm.Failures)
		}
	}
}

// TestSatisfiedLimitIsNoSiteFailure: once a query's LIMIT is met, its
// answer refuses the site's next batch; that refusal is the caller's, so
// on a healthy network no call counts as failed.
func TestSatisfiedLimitIsNoSiteFailure(t *testing.T) {
	dep := deploySoak(t, 3, 600)
	site := httptest.NewServer(dep.SiteHandler(SiteConfig{}))
	defer site.Close()
	srv := dep.StartServer(ServerConfig{Workers: 2, Remote: RemoteConfig{Sites: allRemote(dep, site.URL)}})
	defer srv.Close()
	for range 20 {
		res, err := srv.Query(context.Background(), `SELECT ?x ?n WHERE { ?x <name> ?n . } LIMIT 2`)
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("LIMIT 2: %v rows, err %v", res, err)
		}
	}
	var calls uint64
	for _, sm := range srv.Metrics().Sites {
		calls += sm.Calls
		if sm.Failures != 0 {
			t.Errorf("site %d: %d failures of %d calls on a healthy network", sm.Site, sm.Failures, sm.Calls)
		}
	}
	if calls == 0 {
		t.Fatal("no query reached a remote site")
	}
}

// A dead site either fails the query (strict mode, the default) or is
// skipped with the result flagged partial and the site listed
// (PartialResults mode); the flag reaches the JSON wire format and the
// /metrics counter.
func TestPartialResultsDegradation(t *testing.T) {
	dep := deploySoak(t, 2, 40)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // keep the URL, kill the listener

	q := soakWorkload[0]

	strict := dep.StartServer(ServerConfig{
		Remote: RemoteConfig{Sites: allRemote(dep, dead.URL), Retries: 1, Backoff: time.Millisecond, BreakerThreshold: 100},
	})
	if _, err := strict.Query(context.Background(), q); err == nil {
		t.Error("strict mode returned no error with every site dead")
	} else if !strings.Contains(err.Error(), "unavailable") {
		t.Errorf("strict mode error = %v, want a site-unavailable error", err)
	}
	strict.Close()

	srv := dep.StartServer(ServerConfig{
		Remote: RemoteConfig{
			Sites: allRemote(dep, dead.URL), Retries: 1, Backoff: time.Millisecond,
			BreakerThreshold: 100, PartialResults: true,
		},
	})
	defer srv.Close()
	res, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("partial mode query: %v", err)
	}
	if !res.Stats.Partial {
		t.Fatal("result not flagged partial with every site dead")
	}
	if len(res.Stats.UnreachableSites) == 0 {
		t.Error("no unreachable sites listed on a partial result")
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v from all-dead sites, want none", res.Rows)
	}
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Partial          bool  `json:"partial"`
		UnreachableSites []int `json:"unreachableSites"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("JSON result does not parse: %v: %s", err, buf.String())
	}
	if !doc.Partial || len(doc.UnreachableSites) != len(res.Stats.UnreachableSites) {
		t.Errorf("JSON result does not flag partial with its sites: %s", buf.String())
	}
	if m := srv.Metrics(); m.PartialResults == 0 {
		t.Error("PartialResults counter did not advance")
	}
}

// siteMetricsHTTP reads a fragment host's /metrics endpoint.
func siteMetricsHTTP(t *testing.T, baseURL string) (evals uint64, active int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("site /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m struct {
		Evals       uint64 `json:"evals"`
		ActiveEvals int    `json:"active_evals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode site /metrics: %v", err)
	}
	return m.Evals, m.ActiveEvals
}

// A client disconnecting from /query cancels the in-flight remote
// EvalStreams end to end: the fragment host's in-flight gauge drains
// instead of the abandoned evaluation running on.
func TestQueryDisconnectCancelsRemoteEvals(t *testing.T) {
	dep := deploySoak(t, 2, 40)
	dep.engine.BatchSize = 4 // many small batches, each stalled below

	site := httptest.NewServer(dep.SiteHandler(SiteConfig{
		Chaos: &ChaosConfig{
			Seed: 5, DelayProb: 1,
			StragglerDelay: cluster.Delay{PerMessage: 200 * time.Millisecond},
		},
	}))
	defer site.Close()
	srv := dep.StartServer(ServerConfig{
		Workers: 2,
		Remote:  RemoteConfig{Sites: allRemote(dep, site.URL), Retries: 1, FrameTimeout: 30 * time.Second},
	})
	defer srv.Close()
	ctrl := httptest.NewServer(srv.Handler())
	defer ctrl.Close()

	// The control-site query stalls on the chaos straggler delays; the
	// client gives up after 250ms, which must tear everything down.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ctrl.URL+"/query?q="+strings.ReplaceAll(soakWorkload[0], " ", "+"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Log("query finished before the disconnect; cancellation path not exercised")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		evals, active := siteMetricsHTTP(t, site.URL)
		if evals == 0 {
			t.Fatal("the query never reached the fragment host")
		}
		if active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fragment host still has %d active evals after client disconnect", active)
		}
		time.Sleep(20 * time.Millisecond)
	}
	deadline = time.Now().Add(10 * time.Second)
	for srv.Metrics().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("control server still has %d in-flight queries", srv.Metrics().InFlight)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The deterministic chaos soak: mixed query/update load over networked
// sites under seeded drop/error/cut/delay faults. Every query must
// succeed (retries mask the faults, and dedup the rows a restarted
// stream repeats), the post-quiesce
// answers must equal the fault-free in-process oracle, the robustness
// counters must reconcile with the injected-fault counts, and nothing
// may leak.
func TestChaosSoakRemoteSites(t *testing.T) {
	before := runtime.NumGoroutine()
	dep := deploySoak(t, 3, 80)
	dep.engine.BatchSize = 8 // force multi-batch streams so cuts land mid-stream

	site := httptest.NewServer(dep.SiteHandler(SiteConfig{
		Chaos: &ChaosConfig{
			Seed: 11, Drop: 0.04, Error: 0.04, Cut: 0.04, DelayProb: 0.05,
			StragglerDelay: cluster.Delay{PerMessage: 200 * time.Microsecond},
		},
	}))
	srv := dep.StartServer(ServerConfig{
		Workers: 8,
		Remote: RemoteConfig{
			Sites: allRemote(dep, site.URL), Retries: 12, Backoff: time.Millisecond,
			FrameTimeout: 10 * time.Second, BreakerThreshold: 1 << 20,
		},
	})

	// A server with remote sites refuses updates (ErrRemoteSites). The
	// site handler above serves this same *Deployment, so the soak applies
	// its updates through a second, in-process server on it: that is how
	// the test moves the site's data under the remote streams — not how a
	// production deployment, whose sites are separate processes, is
	// updated.
	writer := dep.StartServer(ServerConfig{Workers: 1})
	if _, err := srv.Update(context.Background(), soakNT(1, 999)); !errors.Is(err, ErrRemoteSites) {
		t.Fatalf("update through the server with remote sites: %v, want ErrRemoteSites", err)
	}

	parsed := make([]*sparql.Graph, len(soakWorkload))
	for i, q := range soakWorkload {
		parsed[i] = sparql.MustParse(dep.db.graph.Dict, q)
	}

	// Phase A: concurrent queries and live updates under fault injection.
	const clients = 4
	const iters = 20
	const updates = 8
	errs := make(chan error, clients*iters+updates)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := srv.QueryParsed(context.Background(), parsed[(c+i)%len(parsed)]); err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", c, i, err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < updates; j++ {
			if _, err := writer.Update(context.Background(), soakNT(3, 1000+10*j)); err != nil {
				errs <- fmt.Errorf("update %d: %w", j, err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("soak failure: %v", err)
	}

	// Phase B: quiesce, then every workload query answered over the
	// faulty network must equal the in-process fault-free oracle.
	for i, q := range parsed {
		remote, err := srv.QueryParsed(context.Background(), q)
		if err != nil {
			t.Fatalf("post-soak remote query %d: %v", i, err)
		}
		if remote.Stats.Partial {
			t.Errorf("post-soak query %d flagged partial; no site was down", i)
		}
		saved := dep.engine.Remotes
		dep.engine.Remotes = nil
		local, err := dep.QueryParsed(q)
		dep.engine.Remotes = saved
		if err != nil {
			t.Fatalf("oracle query %d: %v", i, err)
		}
		if !sameRows(remote, local) {
			t.Errorf("query %d: remote rows (%d) != oracle rows (%d) after soak",
				i, len(remote.Rows), len(local.Rows))
		}
	}

	// Phase C: metrics reconciliation. Each injected disruption (drop,
	// error, cut) failed exactly one attempt, and every call eventually
	// succeeded, so client retries cover the disruptions (the transport
	// layer may add a handful of its own retries on connections the
	// chaos cuts poisoned).
	var retries, failures, fastFails uint64
	for _, sm := range srv.Metrics().Sites {
		if sm.Attempts+sm.FastFails != sm.Calls+sm.Retries {
			t.Errorf("site %d metrics do not reconcile: %+v", sm.Site, sm)
		}
		retries += sm.Retries
		failures += sm.Failures
		fastFails += sm.FastFails
	}
	if failures != 0 || fastFails != 0 {
		t.Errorf("failures %d fastFails %d after soak, want 0/0", failures, fastFails)
	}
	var counts struct {
		Drops, Errors, Cuts uint64
	}
	func() {
		resp, err := http.Get(site.URL + "/metrics")
		if err != nil {
			t.Fatalf("site /metrics: %v", err)
		}
		defer resp.Body.Close()
		var m struct {
			Drops  uint64 `json:"chaos_drops"`
			Errors uint64 `json:"chaos_errors"`
			Cuts   uint64 `json:"chaos_cuts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decode site /metrics: %v", err)
		}
		counts.Drops, counts.Errors, counts.Cuts = m.Drops, m.Errors, m.Cuts
	}()
	disruptions := counts.Drops + counts.Errors + counts.Cuts
	if disruptions == 0 {
		t.Error("chaos injected no disruptions; the soak exercised nothing")
	}
	if retries < disruptions {
		t.Errorf("client retries %d < injected disruptions %d: some fault went unretried", retries, disruptions)
	}

	// Phase D: drain and check for leaks.
	srv.Close()
	writer.Close()
	site.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+8 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before soak, %d after drain", before, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Killing the fragment host's listener mid-run degrades queries to
// flagged partial results and opens the circuit breaker; restarting it
// on the same address recovers clean answers through a half-open probe.
func TestSiteKillRestartRecovery(t *testing.T) {
	dep := deploySoak(t, 2, 40)
	handler := dep.SiteHandler(SiteConfig{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)

	q := soakWorkload[0]
	oracle, err := dep.Query(q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	srv := dep.StartServer(ServerConfig{
		Remote: RemoteConfig{
			Sites: allRemote(dep, "http://"+addr), Retries: 1, Backoff: time.Millisecond,
			FrameTimeout: 5 * time.Second, BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
			PartialResults: true,
		},
	})
	defer srv.Close()

	res, err := srv.Query(context.Background(), q)
	if err != nil || res.Stats.Partial {
		t.Fatalf("healthy query: err=%v partial=%v", err, res != nil && res.Stats.Partial)
	}
	if !sameRows(res, oracle) {
		t.Fatalf("healthy remote rows %v != oracle %v", res.Rows, oracle.Rows)
	}

	// Kill the site. Queries degrade to partial; repeated failures trip
	// the breaker into fail-fast.
	hs.Close()
	for i := 0; i < 3; i++ {
		res, err = srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("degraded query %d: %v", i, err)
		}
		if !res.Stats.Partial {
			t.Fatalf("query %d against dead site not flagged partial", i)
		}
	}
	var opens, fastFails uint64
	anyOpen := false
	for _, sm := range srv.Metrics().Sites {
		opens += sm.BreakerOpens
		fastFails += sm.FastFails
		anyOpen = anyOpen || sm.BreakerState == "open"
	}
	if opens == 0 {
		t.Error("no breaker opened against a dead site")
	}
	if fastFails == 0 {
		t.Error("no fast-fails recorded; the breaker never short-circuited")
	}
	if !anyOpen {
		t.Error("no breaker left open after repeated failures against a dead site")
	}

	// Restart on the same address; within the cooldown window the
	// half-open probe should close the circuit and answers come back
	// complete.
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	hs2 := &http.Server{Handler: handler}
	go hs2.Serve(ln2)
	defer hs2.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err = srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("recovery query: %v", err)
		}
		if !res.Stats.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queries still partial after site restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !sameRows(res, oracle) {
		t.Errorf("post-recovery rows %v != oracle %v", res.Rows, oracle.Rows)
	}
	for _, sm := range srv.Metrics().Sites {
		if sm.BreakerState != "closed" {
			t.Errorf("site %d breaker %q after recovery, want closed", sm.Site, sm.BreakerState)
		}
	}
}
