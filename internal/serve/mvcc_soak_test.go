package serve_test

// MVCC soak for the lock-free query path: slow join queries (simulated
// network latency on every cluster message) run continuously while a
// writer streams update batches through several compactions. Run under
// -race in CI. The invariants are exactly what the Snapshot redesign
// promises over the old data lock: writers never wait behind a
// long-running query (every update completes in a fraction of one query's
// latency), queries observe whole batches only (the published view cut),
// and when the load drains the generation and pinned-snapshot gauges
// settle back to their idle baseline — no retired CSR build outlives its
// last reader.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
)

func TestServerMVCCWritersNeverBlockedByReaders(t *testing.T) {
	// Every cluster message costs 3ms, so each two-pattern join query
	// spends >=10ms in flight — an eternity next to an update batch.
	engine, env := newEngine(t, cluster.Delay{PerMessage: 3 * time.Millisecond})
	env.G.Freeze()
	env.G.SetAutoCompact(0.05) // force >=2 global compactions during the soak

	srv := serve.New(engine, serve.Config{
		Workers:    8,
		QueueDepth: 64,
		Apply:      testApply(env),
	})
	defer srv.Close()

	countQ := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	baseResp, err := srv.Query(context.Background(), countQ)
	if err != nil {
		t.Fatalf("baseline query: %v", err)
	}
	baseRows := baseResp.Bindings.Len()
	idleGens := srv.Metrics().Generations // one live generation per graph

	const (
		readers = 4
		queries = 12 // slow queries per reader
		minB    = 30 // writer floor; it keeps going while readers run
		perB    = 8  // 4 persons x (name + mainInterest) per batch
	)

	var (
		readerWG    sync.WaitGroup
		writerWG    sync.WaitGroup
		errCh       = make(chan error, readers+1)
		readersDone atomic.Bool
		qmu         sync.Mutex
		queryDurs   []time.Duration
		maxUpdate   time.Duration // written only by the writer goroutine
	)

	// Readers: continuously run the slow join and check batch atomicity —
	// each update batch contributes exactly 4 rows, so any row count not
	// a multiple of 4 above the base means a query saw a half-applied
	// batch (a torn view cut). Monotonicity guards against reading a
	// stale pre-pinned state after a newer one was observed.
	for c := 0; c < readers; c++ {
		readerWG.Add(1)
		go func(c int) {
			defer readerWG.Done()
			lastRows := -1
			for i := 0; i < queries; i++ {
				begin := time.Now()
				resp, err := srv.Query(context.Background(), countQ)
				if errors.Is(err, serve.ErrOverloaded) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", c, err)
					return
				}
				dur := time.Since(begin)
				rows := resp.Bindings.Len()
				if (rows-baseRows)%4 != 0 {
					errCh <- fmt.Errorf("reader %d: rows = %d (base %d): query saw a torn update batch", c, rows, baseRows)
					return
				}
				if rows < lastRows {
					errCh <- fmt.Errorf("reader %d: rows went backwards: %d after %d", c, rows, lastRows)
					return
				}
				lastRows = rows
				qmu.Lock()
				queryDurs = append(queryDurs, dur)
				qmu.Unlock()
			}
		}(c)
	}

	// Writer: keep streaming batches for as long as the readers are
	// querying, timing each Update end to end. Under the old data lock
	// every one of these would park behind whatever query held the read
	// lock; under MVCC none of them should ever come close to a query's
	// latency.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		person := 50000
		for b := 0; b < minB || !readersDone.Load(); b++ {
			ts := make([]rdf.Triple, 0, perB)
			for i := 0; i < perB/2; i++ {
				s := env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Mvcc%d", person)))
				ts = append(ts,
					rdf.Triple{S: s, P: env.G.Dict.Encode(rdf.NewIRI("name")), O: env.G.Dict.Encode(rdf.NewLiteral(fmt.Sprintf("Mvcc %d", person)))},
					rdf.Triple{S: s, P: env.G.Dict.Encode(rdf.NewIRI("mainInterest")), O: env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Interest%d", person%5)))},
				)
				person++
			}
			begin := time.Now()
			if _, err := srv.Apply(context.Background(), serve.Batch{Ins: statements(env.G.Dict, ts)}); err != nil {
				errCh <- fmt.Errorf("writer batch %d: %w", b, err)
				return
			}
			if dur := time.Since(begin); dur > maxUpdate {
				maxUpdate = dur
			}
			time.Sleep(time.Millisecond)
			if b > 100*minB {
				errCh <- fmt.Errorf("writer: readers never finished after %d batches", b)
				return
			}
		}
	}()

	readerWG.Wait()
	readersDone.Store(true)
	writerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The headline acceptance property: the slowest update must still be
	// far quicker than an average query. A lock-based writer would have
	// waited out at least one full query latency.
	var total time.Duration
	for _, d := range queryDurs {
		total += d
	}
	meanQuery := total / time.Duration(len(queryDurs))
	if meanQuery < 5*time.Millisecond {
		t.Fatalf("mean query latency %v too low to prove non-blocking; raise the cluster delay", meanQuery)
	}
	if maxUpdate >= meanQuery {
		t.Errorf("slowest update took %v against a %v mean query latency: writer blocked behind readers", maxUpdate, meanQuery)
	}

	if m := srv.Metrics(); m.Compactions < 2 {
		t.Errorf("Compactions = %d during the soak, want >= 2 (the generation swap never exercised)", m.Compactions)
	}

	// Gauge drain: with no query in flight, every view handle has been
	// closed, so pins fall to zero and retired generations get pruned back
	// to exactly one live generation per graph. Poll briefly — the last
	// response is delivered concurrently with its handle's deferred Close.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := srv.Metrics()
		if m.PinnedSnapshots == 0 && m.Generations == idleGens {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("MVCC gauges never drained: generations=%d (idle %d) pinned=%d",
				m.Generations, idleGens, m.PinnedSnapshots)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
