package serve_test

// Reader/writer soak for the live-update path: concurrent clients replay
// join-heavy queries while one writer streams Add batches through
// Server.Apply, pushing the frozen graphs' delta overlays through
// several compactions. Run under -race in CI. The invariants are the
// ones a torn read or a lost lock would break: every successful query
// sees a consistent snapshot (row counts over an insert-only stream are
// monotonically non-decreasing), the final state serves exactly the
// initial+added rows, update metrics add up, no goroutines leak, and the
// queue/in-flight gauges return to idle after Close.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/fragment"
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

// testApply mirrors the deployment layer's update routing over a testenv
// fixture: the global graph always takes an inserted triple;
// hot-predicate triples additionally go to the hot graph and every
// fragment whose generating pattern uses the predicate, everything else
// to the cold graph and cold fragment. Deletes tombstone the triple
// everywhere it may have landed. A batch's delete-set applies before its
// insert-set, matching the deployment's overwrite semantics.
// statements renders triples of d as a batch's insert side.
func statements(d *rdf.Dict, ts []rdf.Triple) [][3]rdf.Term {
	sts := make([][3]rdf.Term, len(ts))
	for i, t := range ts {
		sts[i] = [3]rdf.Term{d.Decode(t.S), d.Decode(t.P), d.Decode(t.O)}
	}
	return sts
}

// interned resolves a batch's insert side to triples of d, interning its
// terms as a deployment's sink does.
func interned(d *rdf.Dict, sts [][3]rdf.Term) []rdf.Triple {
	ts := make([]rdf.Triple, len(sts))
	for i, st := range sts {
		ts[i] = rdf.Triple{S: d.Encode(st[0]), P: d.Encode(st[1]), O: d.Encode(st[2])}
	}
	return ts
}

func testApply(env *testenv.Env) func(b serve.Batch) (serve.UpdateStats, error) {
	usesPred := func(f *fragment.Fragment, p rdf.ID) bool {
		if f.Pattern == nil {
			return false
		}
		for _, e := range f.Pattern.Graph.Edges {
			if e.IsPredVar() || e.Pred == p {
				return true
			}
		}
		return false
	}
	return func(b serve.Batch) (serve.UpdateStats, error) {
		added, deleted := 0, 0
		for _, t := range b.Del {
			if !env.G.Delete(t) {
				continue
			}
			deleted++
			if env.HC.FreqProps[t.P] {
				env.HC.Hot.Delete(t)
			} else {
				env.HC.Cold.Delete(t)
			}
			for _, g := range env.Alloc.Graphs {
				g.Delete(t)
			}
			env.Frag.Cold.Graph.Delete(t)
		}
		for _, t := range interned(env.G.Dict, b.Ins) {
			if !env.G.Add(t) {
				continue
			}
			added++
			placed := false
			if env.HC.FreqProps[t.P] {
				env.HC.Hot.Add(t)
				for _, f := range env.Frag.Fragments {
					if usesPred(f, t.P) {
						f.Graph.Add(t)
						placed = true
					}
				}
			} else {
				env.HC.Cold.Add(t)
			}
			if !placed {
				env.Frag.Cold.Graph.Add(t)
			}
		}
		return serve.UpdateStats{
			Added:       added,
			Deleted:     deleted,
			DeltaLen:    env.G.DeltaLen(),
			Compactions: env.G.Compactions(),
		}, nil
	}
}

func TestServerUpdateSoak(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()

	before := runtime.NumGoroutine()
	srv := serve.New(engine, serve.Config{
		Workers:    6,
		QueueDepth: 256,
		Apply:      testApply(env),
	})

	countQ := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	baseRows := 0
	{
		resp, err := srv.Query(context.Background(), countQ)
		if err != nil {
			t.Fatalf("baseline query: %v", err)
		}
		baseRows = resp.Bindings.Len()
	}

	const (
		clients = 8
		iters   = 25
		batches = 30
		perB    = 8 // triples per update batch: 4 new persons × (name + mainInterest)
	)

	var wg sync.WaitGroup
	errCh := make(chan error, clients+1)
	var stopReaders atomic.Bool

	// Writer: stream batches of new persons through the update path. Each
	// person contributes one row to countQ, so visibility is countable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stopReaders.Store(true)
		person := 10000
		for b := 0; b < batches; b++ {
			ts := make([]rdf.Triple, 0, perB)
			for i := 0; i < perB/2; i++ {
				s := env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Upd%d", person)))
				ts = append(ts,
					rdf.Triple{S: s, P: env.G.Dict.Encode(rdf.NewIRI("name")), O: env.G.Dict.Encode(rdf.NewLiteral(fmt.Sprintf("Upd %d", person)))},
					rdf.Triple{S: s, P: env.G.Dict.Encode(rdf.NewIRI("mainInterest")), O: env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Interest%d", person%5)))},
				)
				person++
			}
			st, err := srv.Apply(context.Background(), serve.Batch{Ins: statements(env.G.Dict, ts)})
			if err != nil {
				errCh <- fmt.Errorf("writer batch %d: %w", b, err)
				return
			}
			if st.Added != len(ts) {
				errCh <- fmt.Errorf("writer batch %d: added %d of %d", b, st.Added, len(ts))
				return
			}
		}
	}()

	// Readers: row counts over an insert-only stream must never go
	// backwards — a torn snapshot (query observing a half-applied batch
	// or a mid-compaction index) is exactly what would break this.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(77 + c)))
			lastRows := -1
			for i := 0; i < iters || !stopReaders.Load(); i++ {
				q := countQ
				if rng.Intn(3) == 0 {
					q = parsedSoak(t, env, rng)
				}
				resp, err := srv.Query(context.Background(), q)
				switch {
				case errors.Is(err, serve.ErrOverloaded):
					time.Sleep(time.Millisecond)
					continue
				case err != nil:
					errCh <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				if q == countQ {
					rows := resp.Bindings.Len()
					if rows < lastRows {
						errCh <- fmt.Errorf("client %d: rows went backwards: %d after %d (torn read?)", c, rows, lastRows)
						return
					}
					lastRows = rows
				}
				if i > 10*iters {
					return // safety valve if the writer stalls
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final state: exactly initial + added persons visible.
	resp, err := srv.Query(context.Background(), countQ)
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	wantRows := baseRows + batches*perB/2
	if got := resp.Bindings.Len(); got != wantRows {
		t.Errorf("final rows = %d, want %d (updates lost or duplicated)", got, wantRows)
	}

	m := srv.Metrics()
	if m.Updates != batches {
		t.Errorf("Updates = %d, want %d", m.Updates, batches)
	}
	if m.TriplesAdded != batches*perB {
		t.Errorf("TriplesAdded = %d, want %d", m.TriplesAdded, batches*perB)
	}
	// 240 global adds against a ~300-triple base must have crossed the
	// compaction threshold at least once; the gauge then reflects the
	// post-compaction delta.
	if m.Compactions == 0 {
		t.Errorf("Compactions = 0 after %d adds (threshold never crossed?)", batches*perB)
	}
	if m.DeltaLen != env.G.DeltaLen() {
		t.Errorf("DeltaLen gauge %d != graph delta %d", m.DeltaLen, env.G.DeltaLen())
	}

	srv.Close()
	m = srv.Metrics()
	if m.QueueDepth != 0 || m.InFlight != 0 {
		t.Errorf("queue=%d in-flight=%d after Close, want 0/0", m.QueueDepth, m.InFlight)
	}
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

// parsedSoak picks a random background query to keep mixed traffic
// flowing alongside the counted one.
func parsedSoak(t *testing.T, env *testenv.Env, rng *rand.Rand) *sparql.Graph {
	t.Helper()
	return sparql.MustParse(env.G.Dict, soakQueries[rng.Intn(len(soakQueries))])
}

// TestServerDeleteRoutesThroughApply: a delete batch shares the update
// path — serialized with inserts, counted in Deleted stats and the
// TriplesDeleted metric, and visible to the next query; deleting a
// never-inserted triple is a no-op, not a phantom.
func TestServerDeleteRoutesThroughApply(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()
	srv := serve.New(engine, serve.Config{Apply: testApply(env)})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	base, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	s := env.G.Dict.Encode(rdf.NewIRI("del-target"))
	ts := []rdf.Triple{{S: s, P: env.G.Dict.Encode(rdf.NewIRI("name")), O: env.G.Dict.Encode(rdf.NewLiteral("Del Target"))}}
	if st, err := srv.Apply(context.Background(), serve.Batch{Ins: statements(env.G.Dict, ts)}); err != nil || st.Added != 1 {
		t.Fatalf("insert: stats %+v, err %v", st, err)
	}

	st, err := srv.Apply(context.Background(), serve.Batch{Del: ts})
	if err != nil || st.Deleted != 1 {
		t.Fatalf("delete: stats %+v, err %v", st, err)
	}
	after, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Bindings.Len() != base.Bindings.Len() {
		t.Fatalf("delete not visible: %d rows, want %d", after.Bindings.Len(), base.Bindings.Len())
	}

	// Deleting it again (now absent) must count zero.
	st, err = srv.Apply(context.Background(), serve.Batch{Del: ts})
	if err != nil || st.Deleted != 0 {
		t.Fatalf("re-delete of absent triple: stats %+v, err %v", st, err)
	}

	m := srv.Metrics()
	if m.TriplesDeleted != 1 {
		t.Fatalf("TriplesDeleted = %d, want 1", m.TriplesDeleted)
	}
	if m.TriplesAdded != 1 || m.Updates != 3 {
		t.Fatalf("gauges after insert+2 deletes: %+v", m)
	}
}

// TestUpdateNoSink: a server without an Apply sink rejects updates.
func TestUpdateNoSink(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{})
	defer srv.Close()
	_, err := srv.Apply(context.Background(), serve.Batch{Ins: [][3]rdf.Term{{rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o")}}})
	if !errors.Is(err, serve.ErrNoUpdater) {
		t.Fatalf("Update without sink: err = %v, want ErrNoUpdater", err)
	}
	_ = env
}

// TestUpdateAfterClose: updates after Close fail with ErrClosed.
func TestUpdateAfterClose(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Apply: testApply(env)})
	srv.Close()
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: [][3]rdf.Term{{rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o")}}}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Update after Close: err = %v, want ErrClosed", err)
	}
}
