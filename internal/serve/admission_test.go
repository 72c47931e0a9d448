package serve_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
)

// waitMetrics polls srv's metrics until ok holds.
func waitMetrics(t *testing.T, srv *serve.Server, what string, ok func(serve.Metrics) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(srv.Metrics()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (metrics %+v)", what, srv.Metrics())
		}
	}
}

// submit runs srv.Query(ctx, q) on a goroutine of its own and returns the
// channel its error arrives on.
func submit(ctx context.Context, srv *serve.Server, q *sparql.Graph) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := srv.Query(ctx, q)
		done <- err
	}()
	return done
}

// stalledServer is a server with one execution slot over a cluster whose
// every message takes an hour: an executing query holds its slot until
// its context ends.
func stalledServer(t *testing.T, queueDepth int) (*serve.Server, *cluster.Cluster, *sparql.Graph) {
	t.Helper()
	engine, env := newEngine(t, cluster.Delay{PerMessage: time.Hour})
	srv := serve.New(engine, serve.Config{Workers: 1, QueueDepth: queueDepth})
	t.Cleanup(srv.Close)
	return srv, engine.Cluster, sparql.MustParse(env.G.Dict, testQueries[3])
}

// TestAdmissionWaitCancelled: a query whose context ends while it waits
// for a slot returns the context's error without reaching the engine —
// nothing planned, no message sent — and frees its admission for the
// next query.
func TestAdmissionWaitCancelled(t *testing.T) {
	srv, c, q := stalledServer(t, 1)
	holder, release := context.WithCancel(context.Background())
	defer release()
	held := submit(holder, srv, q)
	waitMetrics(t, srv, "the slot to be taken", func(m serve.Metrics) bool { return m.InFlight == 1 })

	msgs, _ := c.Net.Snapshot()
	before := srv.Metrics()
	waiter, cancel := context.WithCancel(context.Background())
	waited := submit(waiter, srv, q)
	waitMetrics(t, srv, "the query to wait", func(m serve.Metrics) bool { return m.QueueDepth == 1 })
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("a query cancelled while waiting: err %v, want context.Canceled", err)
	}
	after := srv.Metrics()
	if got, _ := c.Net.Snapshot(); got != msgs || after.CacheHits+after.CacheMisses != before.CacheHits+before.CacheMisses {
		t.Errorf("the cancelled query reached the engine: %d messages and %d plan lookups, want %d and %d",
			got, after.CacheHits+after.CacheMisses, msgs, before.CacheHits+before.CacheMisses)
	}
	if after.QueueDepth != 0 || after.Failed != before.Failed+1 {
		t.Errorf("after the cancelled wait: queue depth %d, failed %d; want 0 and %d", after.QueueDepth, after.Failed, before.Failed+1)
	}

	// Its admission is free again: the next query waits instead of being
	// refused.
	next, cancelNext := context.WithCancel(context.Background())
	waitedNext := submit(next, srv, q)
	waitMetrics(t, srv, "the next query to wait", func(m serve.Metrics) bool { return m.QueueDepth == 1 })
	cancelNext()
	release()
	for _, done := range []<-chan error{waitedNext, held} {
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
	}
	if m := srv.Metrics(); m.QueueDepth != 0 || m.InFlight != 0 || m.Rejected != 0 {
		t.Errorf("queue depth %d, in flight %d, rejected %d; want 0, 0, 0", m.QueueDepth, m.InFlight, m.Rejected)
	}
}

// TestEndedContextTakesFreeSlot: a query whose context ended before it
// was submitted, to a server with a slot free, takes the slot at once and
// gives it back with the context's error before planning — nothing
// planned, no message sent, one failure — so the next query runs.
func TestEndedContextTakesFreeSlot(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Workers: 1})
	defer srv.Close()
	q := sparql.MustParse(env.G.Dict, testQueries[3])
	gone, cancel := context.WithCancel(context.Background())
	cancel()

	msgs, _ := engine.Cluster.Net.Snapshot()
	before := srv.Metrics()
	if _, err := srv.Query(gone, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("a query with an ended context: err %v, want context.Canceled", err)
	}
	after := srv.Metrics()
	if got, _ := engine.Cluster.Net.Snapshot(); got != msgs || after.CacheHits+after.CacheMisses != before.CacheHits+before.CacheMisses {
		t.Errorf("the query reached the engine: %d messages and %d plan lookups, want %d and %d",
			got, after.CacheHits+after.CacheMisses, msgs, before.CacheHits+before.CacheMisses)
	}
	if after.Failed != before.Failed+1 || after.QueueDepth != 0 || after.InFlight != 0 {
		t.Errorf("failed %d, queue depth %d, in flight %d; want %d, 0, 0", after.Failed, after.QueueDepth, after.InFlight, before.Failed+1)
	}
	if _, err := srv.Query(context.Background(), q); err != nil {
		t.Fatalf("the next query: %v", err)
	}
}

// TestOverloadStartsAtWorkersPlusQueueDepth: with Workers 2 and
// QueueDepth 3, five queries are admitted — two executing, three waiting
// — and the sixth is refused with ErrOverloaded at once.
func TestOverloadStartsAtWorkersPlusQueueDepth(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: time.Hour})
	srv := serve.New(engine, serve.Config{Workers: 2, QueueDepth: 3})
	defer srv.Close()
	q := sparql.MustParse(env.G.Dict, testQueries[3])
	held, release := context.WithCancel(context.Background())
	defer release()
	var admitted []<-chan error
	for i := 1; i <= 5; i++ {
		admitted = append(admitted, submit(held, srv, q))
		waitMetrics(t, srv, "the query's admission", func(m serve.Metrics) bool {
			return m.InFlight == min(i, 2) && m.QueueDepth == max(0, i-2)
		})
	}
	if _, err := srv.Query(context.Background(), q); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("the sixth query: err %v, want ErrOverloaded", err)
	}
	release()
	for i, done := range admitted {
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("admitted query %d: err %v, want context.Canceled", i, err)
		}
	}
	if m := srv.Metrics(); m.Rejected != 1 || m.QueueDepth != 0 || m.InFlight != 0 {
		t.Errorf("rejected %d, queue depth %d, in flight %d; want 1, 0, 0", m.Rejected, m.QueueDepth, m.InFlight)
	}
}

// TestCloseWaitsForAdmittedQueries: Close refuses new queries at once but
// returns only once every admitted query has finished — the executing
// one and those still waiting for a slot, which then run to completion.
func TestCloseWaitsForAdmittedQueries(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 50 * time.Millisecond})
	srv := serve.New(engine, serve.Config{Workers: 1, QueueDepth: 2})
	q := sparql.MustParse(env.G.Dict, testQueries[3])
	var admitted []<-chan error
	for i := 1; i <= 3; i++ {
		admitted = append(admitted, submit(context.Background(), srv, q))
		waitMetrics(t, srv, "the query's admission", func(m serve.Metrics) bool { return m.InFlight+m.QueueDepth == i })
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Until Close refuses it, a probe is overloaded, or, should a slot
	// have freed, admitted and failed at once: its context has ended.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for {
		if _, err := srv.Query(gone, q); errors.Is(err, serve.ErrClosed) {
			break
		}
	}
	<-closed
	if m := srv.Metrics(); m.Completed != 3 || m.QueueDepth != 0 || m.InFlight != 0 {
		t.Errorf("once Close returned: completed %d, queue depth %d, in flight %d; want 3, 0, 0", m.Completed, m.QueueDepth, m.InFlight)
	}
	for i, done := range admitted {
		if err := <-done; err != nil {
			t.Errorf("admitted query %d: %v", i, err)
		}
	}
}
