package serve_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/exec"
	"rdffrag/internal/match"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

var testQueries = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`,
	`SELECT ?x ?v WHERE { ?x <viaf> ?v . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <viaf> ?v . }`,
	`SELECT ?x ?c WHERE { ?x <placeOfDeath> ?c . }`,
	`SELECT ?x WHERE { ?x <mainInterest> <Interest2> . ?x <influencedBy> ?y . ?y <mainInterest> ?j . }`,
}

func newEngine(t *testing.T, latency cluster.Delay) (*exec.Engine, *testenv.Env) {
	t.Helper()
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := cluster.New(4, 2)
	c.Latency = latency
	e, err := exec.New(c, env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	return e, env
}

func rowSet(b *match.Bindings) map[string]int {
	m := make(map[string]int)
	w := len(b.Vars)
	for i := 0; i < b.Len(); i++ {
		m[fmt.Sprint(b.Rows[i*w:(i+1)*w])]++
	}
	return m
}

func sameBindings(a, b *match.Bindings) bool {
	if len(a.Vars) != len(b.Vars) || a.Len() != b.Len() {
		return false
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return false
		}
	}
	as, bs := rowSet(a), rowSet(b)
	for k, v := range as {
		if bs[k] != v {
			return false
		}
	}
	return true
}

// TestConcurrentClientsMatchSequential drives the server with many
// concurrent clients issuing a mixed workload and asserts every response
// is identical to the single-threaded engine's answer. Run under -race
// in CI, this is the concurrency gate for the streaming pipeline and the
// shared plan cache.
func TestConcurrentClientsMatchSequential(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})

	// Sequential ground truth, computed before the server touches the
	// engine.
	parsed := make([]*sparql.Graph, len(testQueries))
	want := make([]*match.Bindings, len(testQueries))
	for i, qs := range testQueries {
		q := sparql.MustParse(env.G.Dict, qs)
		b, _, err := engine.Query(q)
		if err != nil {
			t.Fatalf("sequential Query(%s): %v", qs, err)
		}
		parsed[i], want[i] = q, b
	}

	srv := serve.New(engine, serve.Config{Workers: 6, QueueDepth: 256})
	defer srv.Close()

	const clients = 8
	const reps = 5
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				// Each client walks the workload at a different offset so
				// distinct queries overlap in time.
				for i := range parsed {
					j := (i + c) % len(parsed)
					resp, err := srv.Query(context.Background(), parsed[j])
					if err != nil {
						errCh <- fmt.Errorf("client %d query %d: %w", c, j, err)
						return
					}
					if !sameBindings(resp.Bindings, want[j]) {
						errCh <- fmt.Errorf("client %d query %d: concurrent result diverged (%d rows vs %d)",
							c, j, resp.Bindings.Len(), want[j].Len())
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if got, wantN := m.Completed, uint64(clients*reps*len(parsed)); got != wantN {
		t.Errorf("Completed = %d, want %d", got, wantN)
	}
	if m.CacheHits == 0 {
		t.Errorf("expected plan cache hits across repeated queries, got 0 (misses %d)", m.CacheMisses)
	}
	if m.P95 < m.P50 || m.P99 < m.P95 {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", m.P50, m.P95, m.P99)
	}
}

// TestTimeout checks that a per-query deadline aborts a slow distributed
// execution instead of letting it run to completion.
func TestTimeout(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 50 * time.Millisecond})
	srv := serve.New(engine, serve.Config{Workers: 2, Timeout: time.Millisecond})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, testQueries[0])
	_, err := srv.Query(context.Background(), q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query with 1ms timeout on a 50ms/message cluster: err = %v, want DeadlineExceeded", err)
	}
	if m := srv.Metrics(); m.TimedOut == 0 {
		t.Errorf("TimedOut = 0 after a deadline failure")
	}
}

// TestTimeoutSingleInProcessUnit: a query of one subquery at one
// in-process site runs under no context the server derives; its deadline
// rides on the plan and is checked as each shipped batch arrives. Forty
// one-row batches at 20ms a message would take 0.8s; the query must stop
// at the first batch past its 30ms deadline, fail with DeadlineExceeded
// and count as timed out.
func TestTimeoutSingleInProcessUnit(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 20 * time.Millisecond})
	engine.BatchSize = 1
	srv := serve.New(engine, serve.Config{Workers: 1, Timeout: 30 * time.Millisecond})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, `SELECT ?x ?c WHERE { ?x <placeOfDeath> ?c . }`)
	if ex, err := engine.Explain(q); err != nil || len(ex.Subqueries) != 1 || len(ex.Subqueries[0].Fragments) != 1 {
		t.Fatalf("want one subquery at one site, got %v (err %v)", ex, err)
	}
	start := time.Now()
	_, err := srv.Query(context.Background(), q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query past its deadline: err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 400*time.Millisecond {
		t.Errorf("the query stopped after %v: its batches were not checked against the deadline as they arrived", el)
	}
	if m := srv.Metrics(); m.TimedOut != 1 || m.Failed != 1 {
		t.Errorf("TimedOut = %d, Failed = %d after one deadline failure, want 1 and 1", m.TimedOut, m.Failed)
	}
}

// TestTimeoutQueuedAtBusySite: a query of one subquery at one in-process
// site whose only worker another evaluation holds waits for the worker
// no longer than its deadline. The server admits more queries than the
// site has workers, so the wait is the site's, and the held evaluation
// ships nothing the queued query's sink could check the deadline at.
func TestTimeoutQueuedAtBusySite(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := cluster.New(4, 1)
	engine, err := exec.New(c, env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	srv := serve.New(engine, serve.Config{Workers: 4, Timeout: 50 * time.Millisecond})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, `SELECT ?x ?c WHERE { ?x <placeOfDeath> ?c . }`)
	ex, err := engine.Explain(q)
	if err != nil || len(ex.Subqueries) != 1 || len(ex.Subqueries[0].Fragments) != 1 {
		t.Fatalf("want one subquery at one site, got %v (err %v)", ex, err)
	}
	frag := ex.Subqueries[0].Fragments[0]

	// Hold the site's one worker: the sink of an evaluation there blocks
	// on its first batch.
	entered, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	holder := make(chan error, 1)
	go func() {
		first := true
		holder <- c.EvalStream(context.Background(), cluster.EvalRequest{SiteID: frag.Site, FragIDs: []int{frag.ID}, Query: q}, 1,
			func(b *match.Bindings) error {
				b.Release()
				if first {
					first = false
					close(entered)
					<-release
				}
				return nil
			})
	}()
	<-entered

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Query(context.Background(), q)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Query queued at a busy site: err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the query still waits for the site's worker 5s past its 50ms deadline")
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Errorf("the query timed out after %v, before its 50ms deadline", el)
	}
	if m := srv.Metrics(); m.TimedOut != 1 {
		t.Errorf("TimedOut = %d after one deadline failure, want 1", m.TimedOut)
	}
	releaseOnce()
	if err := <-holder; err != nil {
		t.Fatalf("held evaluation: %v", err)
	}
}

// TestCancellation checks that cancelling the caller's context abandons
// the query.
func TestCancellation(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 50 * time.Millisecond})
	srv := serve.New(engine, serve.Config{Workers: 1})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, testQueries[1])
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := srv.Query(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Query after cancel: err = %v, want Canceled", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("cancellation took %v; expected prompt return", el)
	}
}

// TestOverload fills a tiny admission queue and expects fail-fast
// rejections rather than unbounded queueing.
func TestOverload(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 20 * time.Millisecond})
	srv := serve.New(engine, serve.Config{Workers: 1, QueueDepth: 1})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, testQueries[0])
	const burst = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	var rejected, completed int
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.Query(context.Background(), q)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				rejected++
			case err == nil:
				completed++
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		t.Errorf("burst of %d on a depth-1 queue with 1 worker: no rejections", burst)
	}
	if completed == 0 {
		t.Errorf("burst of %d: nothing completed", burst)
	}
	if m := srv.Metrics(); m.Rejected != uint64(rejected) {
		t.Errorf("Metrics.Rejected = %d, counted %d", m.Rejected, rejected)
	}
}

// TestPlanCache checks what the cache keys on: a query's shape. Fresh
// constants and renamed variables hit the entry their first instance
// made and are answered under their own constants and names; the same
// pattern written in another triple order numbers its vertices
// differently and gets an entry of its own — with the same rows.
func TestPlanCache(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Workers: 1})
	defer srv.Close()

	texts := []string{
		`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`, // miss
		`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person5> . }`, // other constant: hit
		`SELECT ?a WHERE { ?a <name> ?m . ?a <influencedBy> <Person3> . }`, // renamed: hit
		`SELECT ?x WHERE { ?x <influencedBy> <Person3> . ?x <name> ?n . }`, // reordered: miss
		`SELECT ?x WHERE { ?x <influencedBy> <Person5> . ?x <name> ?n . }`, // hit on the reordered entry
	}
	wantHit := []bool{false, true, true, false, true}
	var resps []*serve.Response
	for i, text := range texts {
		q := sparql.MustParse(env.G.Dict, text)
		resp, err := srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("Query(%s): %v", text, err)
		}
		if resp.CacheHit != wantHit[i] {
			t.Errorf("query %d: CacheHit = %v, want %v", i, resp.CacheHit, wantHit[i])
		}
		want, _, err := engine.Query(q)
		if err != nil {
			t.Fatalf("engine.Query(%s): %v", text, err)
		}
		if !sameBindings(resp.Bindings, want) {
			t.Errorf("query %d served wrong rows from a shared shape", i)
		}
		resps = append(resps, resp)
	}
	if m := srv.Metrics(); m.CacheHits != 3 || m.CacheMisses != 2 {
		t.Errorf("CacheHits/Misses = %d/%d, want 3/2", m.CacheHits, m.CacheMisses)
	}
	if resps[0].Bindings.Len() == 0 || sameBindings(resps[0].Bindings, resps[1].Bindings) {
		t.Errorf("Person3 and Person5 instances must each get their own non-trivial answer")
	}
	if got := resps[2].Bindings.Vars; len(got) != 1 || got[0] != "a" {
		t.Errorf("renamed query's projection vars = %v, want [a]", got)
	}
	if !sameBindings(resps[0].Bindings, resps[3].Bindings) {
		t.Errorf("reordered text returned different rows")
	}
}

// TestNearbyShapesNeverMisbind sends structurally close queries through
// one cache, twice each and interleaved: whichever shape a query hits, it
// must come back with the rows the uncached engine gives it.
func TestNearbyShapesNeverMisbind(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Workers: 1})
	defer srv.Close()
	texts := []string{
		`SELECT * WHERE { ?x <influencedBy> <Person3> . }`,
		`SELECT * WHERE { <Person3> <influencedBy> ?x . }`,
		`SELECT * WHERE { <Person0> <influencedBy> ?x . }`,
		`SELECT * WHERE { ?x <influencedBy> ?y . }`,
		`SELECT * WHERE { <Person0> <influencedBy> ?x . ?y <influencedBy> <Person0> . }`, // one constant, two positions
		`SELECT * WHERE { <Person0> <influencedBy> ?x . ?y <influencedBy> <Person3> . }`, // two constants
		`SELECT * WHERE { <Person2> <influencedBy> ?x . ?y <influencedBy> <Person5> . }`,
		`SELECT * WHERE { ?x ?p <Person3> . }`, // predicate variable
		`SELECT * WHERE { ?x ?p <Person3> . ?x <name> ?n . }`,
		`SELECT * WHERE { ?x <viaf> ?v . }`,                // cold only
		`SELECT * WHERE { ?x <name> ?n . ?x <viaf> ?v . }`, // hot and cold
		`SELECT * WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . ?x <viaf> ?v . }`,
		`SELECT * WHERE { ?x <name> ?n . ?x <influencedBy> <NobodyTheGraphKnows> . }`, // constant no triple carries
		`SELECT * WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`,
	}
	for round := 0; round < 2; round++ {
		for _, text := range texts {
			q := sparql.MustParse(env.G.Dict, text)
			resp, err := srv.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("Query(%s): %v", text, err)
			}
			want, _, err := engine.Query(q)
			if err != nil {
				t.Fatalf("engine.Query(%s): %v", text, err)
			}
			if !sameBindings(resp.Bindings, want) {
				t.Errorf("round %d: %s served %d rows (hit=%v), engine %d", round, text, resp.Bindings.Len(), resp.CacheHit, want.Len())
			}
		}
	}
	if m := srv.Metrics(); m.CacheHits == 0 || m.CacheMisses >= uint64(2*len(texts)) {
		t.Errorf("CacheHits/Misses = %d/%d: the cache took no part", m.CacheHits, m.CacheMisses)
	}
}

// TestClosedServer checks post-Close submissions fail with ErrClosed.
func TestClosedServer(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{})
	srv.Close()
	q := sparql.MustParse(env.G.Dict, testQueries[0])
	if _, err := srv.Query(context.Background(), q); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Query after Close: err = %v, want ErrClosed", err)
	}
	srv.Close() // second Close must not panic
}

// TestLRUEviction exercises the cache bound: more distinct shapes than
// capacity must not grow the cache past its limit, and the server keeps
// answering correctly.
func TestLRUEviction(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Workers: 2, PlanCacheSize: 2})
	defer srv.Close()

	// Rotate through 4 distinct shapes so each is its own cache entry.
	shapes := []string{
		`SELECT ?x WHERE { ?x <mainInterest> <Interest1> . }`,
		`SELECT ?x WHERE { ?x <mainInterest> ?i . }`,
		`SELECT ?x WHERE { ?x <name> ?n . }`,
		`SELECT ?x WHERE { ?x <placeOfDeath> ?c . }`,
	}
	for r := 0; r < 3; r++ {
		for i, qs := range shapes {
			q := sparql.MustParse(env.G.Dict, qs)
			resp, err := srv.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("Query(%s): %v", qs, err)
			}
			want, _, err := engine.Query(q)
			if err != nil {
				t.Fatalf("engine.Query(%s): %v", qs, err)
			}
			if !sameBindings(resp.Bindings, want) {
				t.Errorf("round %d query %d: wrong rows after eviction churn", r, i)
			}
		}
	}
	m := srv.Metrics()
	if m.CacheHits+m.CacheMisses != 12 {
		t.Errorf("lookups = %d, want 12", m.CacheHits+m.CacheMisses)
	}
	// With capacity 2 and a 4-shape round-robin, every lookup misses.
	if m.CacheMisses != 12 {
		t.Errorf("CacheMisses = %d, want 12 (capacity 2 thrashing)", m.CacheMisses)
	}
}

// TestMetricsOrderedLatencies sanity-checks the percentile estimator.
func TestMetricsOrderedLatencies(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Workers: 4})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, testQueries[5])
	for i := 0; i < 20; i++ {
		if _, err := srv.Query(context.Background(), q); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	m := srv.Metrics()
	if m.Completed != 20 || m.QPS <= 0 || m.P50 <= 0 {
		t.Errorf("metrics after 20 queries: completed=%d qps=%f p50=%v", m.Completed, m.QPS, m.P50)
	}
	lats := []time.Duration{m.P50, m.P95, m.P99}
	if !sort.SliceIsSorted(lats, func(i, j int) bool { return lats[i] < lats[j] }) {
		t.Errorf("percentiles not monotone: %v", lats)
	}
}
