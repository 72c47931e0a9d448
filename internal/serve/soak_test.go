package serve_test

// End-to-end server soak for the join pipeline: many concurrent clients
// replay join-heavy queries against rdffrag's serving layer while a share
// of the requests is cancelled mid-flight or given deadlines too tight to
// meet. Every query spawns a producer per subquery and a goroutine per
// join stage, so the invariants here are exactly the ones early
// termination could break: no goroutine leaks once the server closes, and
// the admission queue and in-flight gauges return to zero.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
)

// soakQueries is the join-heavy share of the workload: every query has
// at least two triple patterns, so every execution runs the control-site
// join pipeline.
var soakQueries = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <viaf> ?v . }`,
	`SELECT ?x WHERE { ?x <mainInterest> <Interest2> . ?x <influencedBy> ?y . ?y <mainInterest> ?j . }`,
	`SELECT ?x ?k WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . }`,
}

func TestServerSoakCancellationAndLeaks(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 200 * time.Microsecond})
	parsed := make([]*sparql.Graph, len(soakQueries))
	for i, qs := range soakQueries {
		parsed[i] = sparql.MustParse(env.G.Dict, qs)
	}

	before := runtime.NumGoroutine()
	srv := serve.New(engine, serve.Config{
		Workers:    8,
		QueueDepth: 128,
		Timeout:    250 * time.Millisecond,
	})

	const clients = 12
	const iters = 30
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < iters; i++ {
				q := parsed[rng.Intn(len(parsed))]
				err := func() error {
					ctx := context.Background()
					var cancel context.CancelFunc
					switch rng.Intn(4) {
					case 0:
						// Deadline often too tight to meet: expires in
						// the queue, mid-pipeline, or not at all.
						ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2000))*time.Microsecond)
					case 1:
						// Asynchronous mid-flight cancellation.
						ctx, cancel = context.WithCancel(ctx)
						go func(cancel context.CancelFunc, d time.Duration) {
							time.Sleep(d)
							cancel()
						}(cancel, time.Duration(rng.Intn(1500))*time.Microsecond)
					}
					if cancel != nil {
						defer cancel()
					}
					_, err := srv.Query(ctx, q)
					switch {
					case err == nil:
					case errors.Is(err, context.Canceled),
						errors.Is(err, context.DeadlineExceeded),
						errors.Is(err, serve.ErrOverloaded):
						// Expected under soak.
					default:
						return fmt.Errorf("client %d: unexpected error: %w", c, err)
					}
					return nil
				}()
				if err != nil {
					errCh <- err
					return
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
	if m.Completed == 0 {
		t.Fatal("soak completed no queries")
	}

	srv.Close()
	m = srv.Metrics()
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after Close, want 0", m.QueueDepth)
	}
	if m.InFlight != 0 {
		t.Errorf("in-flight %d after Close, want 0", m.InFlight)
	}

	// Goroutine-leak bound: abandoned executions (the server keeps
	// running a query its client cancelled) and join stages must all
	// unwind once the server has drained. Allow brief settling and a
	// small slack for runtime/test goroutines.
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
