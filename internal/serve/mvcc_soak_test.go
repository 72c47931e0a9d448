package serve_test

// MVCC soak for the lock-free query path: slow join queries (simulated
// network latency on every cluster message) run continuously while a
// writer streams update batches through several compactions. Run under
// -race in CI. The invariants are exactly what the Snapshot redesign
// promises over the old data lock: writers never wait behind a query
// (with one query held inside its site evaluation, the writer applies and
// publishes batches, a compaction among them, before it is let go, and
// the held query then answers from the view it pinned), queries observe
// whole batches only (the published view cut), and when the load drains
// the generation and pinned-snapshot gauges settle back to their idle
// baseline — no retired CSR build outlives its last reader.

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

// heldEval evaluates through the in-process cluster, except that the
// first evaluation after armed is set tells entered and waits for
// release.
type heldEval struct {
	c                *cluster.Cluster
	armed            atomic.Bool
	entered, release chan struct{}
}

func (h *heldEval) EvalStream(ctx context.Context, req cluster.EvalRequest, batchSize int, sink cluster.BatchSink) error {
	if h.armed.CompareAndSwap(true, false) {
		close(h.entered)
		<-h.release
	}
	return h.c.EvalStream(ctx, req, batchSize, sink)
}

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

	person := 50000
	batch := func() serve.Batch { // 4 persons x (name + mainInterest)
		ts := make([]rdf.Triple, 0, 8)
		for range 4 {
			s := env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Mvcc%d", person)))
			ts = append(ts,
				rdf.Triple{S: s, P: env.G.Dict.Encode(rdf.NewIRI("name")), O: env.G.Dict.Encode(rdf.NewLiteral(fmt.Sprintf("Mvcc %d", person)))},
				rdf.Triple{S: s, P: env.G.Dict.Encode(rdf.NewIRI("mainInterest")), O: env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Interest%d", person%5)))},
			)
			person++
		}
		return serve.Batch{Ins: statements(env.G.Dict, ts)}
	}

	// The ordering check: hold one query inside its site evaluation — it
	// has pinned its view — and require the writer to apply and publish
	// batches, up to and past a compaction, before it is let go. A writer
	// that waited for readers would wait here forever.
	held := &heldEval{c: engine.Cluster, entered: make(chan struct{}), release: make(chan struct{})}
	held.armed.Store(true)
	release := sync.OnceFunc(func() { close(held.release) })
	defer release() // a failure below must not leave Close waiting on it
	engine.Remotes = map[int]cluster.SiteEval{}
	for site := range engine.Cluster.Sites {
		engine.Remotes[site] = held
	}
	heldDone := make(chan error, 1)
	heldRows := -1
	go func() {
		resp, err := srv.Query(context.Background(), countQ)
		if err == nil {
			heldRows = resp.Bindings.Len()
		}
		heldDone <- err
	}()
	<-held.entered
	compactions := srv.Metrics().Compactions
	applied := make(chan int, 1)
	go func() {
		n := 0
		for srv.Metrics().Compactions == compactions && n < 1000 {
			if _, err := srv.Apply(context.Background(), batch()); err != nil {
				t.Errorf("update beside the held query: %v", err)
				break
			}
			n++
		}
		applied <- n
	}()
	select {
	case n := <-applied:
		if srv.Metrics().Compactions == compactions {
			t.Fatalf("%d batches applied beside the held query without a compaction", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the writer is still waiting for the held query after 30s: writers block behind readers")
	}
	select {
	case err := <-heldDone:
		t.Fatalf("the held query returned (%v) before it was released", err)
	default:
	}
	release()
	if err := <-heldDone; err != nil {
		t.Fatalf("held query: %v", err)
	}
	if heldRows != baseRows {
		t.Errorf("the held query answered %d rows, want the %d of the view it pinned before the updates", heldRows, baseRows)
	}
	engine.Remotes = nil
	baseRows = person - 50000 + baseRows // every person added one row

	const (
		readers = 4
		queries = 12 // slow queries per reader
		minB    = 30 // writer floor; it keeps going while readers run
	)

	var (
		readerWG    sync.WaitGroup
		writerWG    sync.WaitGroup
		errCh       = make(chan error, readers+1)
		readersDone atomic.Bool
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
				resp, err := srv.Query(context.Background(), countQ)
				if errors.Is(err, serve.ErrOverloaded) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", c, err)
					return
				}
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
			}
		}(c)
	}

	// Writer: keep streaming batches for as long as the readers are
	// querying, so queries pin views on both sides of publishes and
	// compactions.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for b := 0; b < minB || !readersDone.Load(); b++ {
			if _, err := srv.Apply(context.Background(), batch()); err != nil {
				errCh <- fmt.Errorf("writer batch %d: %w", b, err)
				return
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
