package serve_test

// TTL expiry and atomic overwrite visibility at the serving layer. The
// sweeper's contract: a triple an insert stamped with a deadline is
// deleted — through the ordinary Apply path, so the deletion is
// WAL-logged and MVCC-published wherever the sink is durable — once the
// deadline passes, and never before (which the root package's lockstep
// runs check against internal/model); a failed sweep leaves its triples
// due instead of dropping them. The overwrite contract: a reader either
// sees a version's triples completely or not at all — the delete-set and
// insert-set land under one Publish, so no query observes the swap half
// done.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/model"
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
)

// ttlConfig is apply with the TTL schedule a deployment keeps beside it,
// the model's: the latest write of a triple sets or clears its deadline,
// and Due lists what has fallen due. A rejected batch changes nothing.
func ttlConfig(d *rdf.Dict, apply func(serve.Batch) (serve.UpdateStats, error)) serve.Config {
	schedule := model.New()
	return serve.Config{
		SweepInterval: -1,
		Apply: func(b serve.Batch) (serve.UpdateStats, error) {
			st, err := apply(b)
			if err == nil {
				schedule.Apply(model.Batch{Del: b.Del, Ins: interned(d, b.Ins), Deadline: b.Deadline})
			}
			return st, err
		},
		Due: schedule.Due,
	}
}

// TestSweepRequeuesFailedBatches: when the Apply sink rejects the
// sweep's delete batch (a poisoned WAL would), nothing changes — the
// triples stay due and a later sweep deletes them. Expiries are never
// silently dropped.
func TestSweepRequeuesFailedBatches(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()

	poisoned := errors.New("sink poisoned")
	var failDeletes atomic.Bool
	apply := testApply(env)
	srv := serve.New(engine, ttlConfig(env.G.Dict, func(b serve.Batch) (serve.UpdateStats, error) {
		if len(b.Del) > 0 && failDeletes.Load() {
			return serve.UpdateStats{}, poisoned
		}
		return apply(b)
	}))
	defer srv.Close()

	ins := []rdf.Triple{{
		S: env.G.Dict.Encode(rdf.NewIRI("ttl-requeue")),
		P: env.G.Dict.Encode(rdf.NewIRI("name")),
		O: env.G.Dict.Encode(rdf.NewLiteral("Requeue")),
	}}
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: statements(env.G.Dict, ins), Deadline: time.Now().Add(time.Millisecond)}); err != nil {
		t.Fatal(err)
	}

	failDeletes.Store(true)
	due := time.Now().Add(time.Second)
	if n := srv.Sweep(due); n != 0 {
		t.Fatalf("failed sweep reported %d deletions", n)
	}
	if m := srv.Metrics(); m.SweepRuns != 0 {
		t.Fatalf("failed sweep counted as a run (SweepRuns = %d)", m.SweepRuns)
	}

	failDeletes.Store(false)
	if n := srv.Sweep(due); n != 1 {
		t.Fatalf("retried sweep removed %d triples, want 1", n)
	}
	if n := srv.Sweep(due); n != 0 {
		t.Fatalf("a sweep after the retry removed %d triples, want 0", n)
	}
}

// TestBackgroundSweeperExpires: the background sweeper (no explicit
// Sweep calls) removes a stamped triple on its own within a few
// intervals.
func TestBackgroundSweeperExpires(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()
	cfg := ttlConfig(env.G.Dict, testApply(env))
	cfg.SweepInterval = 5 * time.Millisecond
	srv := serve.New(engine, cfg)
	defer srv.Close()

	ins := []rdf.Triple{{
		S: env.G.Dict.Encode(rdf.NewIRI("ttl-bg")),
		P: env.G.Dict.Encode(rdf.NewIRI("name")),
		O: env.G.Dict.Encode(rdf.NewLiteral("Background")),
	}}
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: statements(env.G.Dict, ins), Deadline: time.Now().Add(time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := srv.Metrics(); m.SweptTriples >= 1 {
			if m.SweepRuns == 0 {
				t.Fatalf("swept %d triples in 0 runs", m.SweptTriples)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background sweeper never expired the batch: %+v", srv.Metrics())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOverwriteAtomicVisibilitySoak: a writer cycles a subject through
// versions via Overwrite (delete version v-1's two triples, insert
// version v's) while readers query both triples together. Every reader
// must see exactly one complete version — one row whose name and
// interest agree — never a half-swapped state (zero rows, or the two
// predicates disagreeing on the version). Run under -race in CI.
func TestOverwriteAtomicVisibilitySoak(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()
	srv := serve.New(engine, serve.Config{Workers: 6, Apply: testApply(env), SweepInterval: -1})
	defer srv.Close()

	const versions = 60
	subj := env.G.Dict.Encode(rdf.NewIRI("OWSoak"))
	name := env.G.Dict.Encode(rdf.NewIRI("name"))
	interest := env.G.Dict.Encode(rdf.NewIRI("mainInterest"))
	// Pre-intern every version's terms so readers can map row IDs back
	// to version numbers without touching the dictionary concurrently.
	nameOf := make(map[rdf.ID]int, versions+1)
	interestOf := make(map[rdf.ID]int, versions+1)
	verTriples := make([][]rdf.Triple, versions+1)
	for v := 0; v <= versions; v++ {
		n := env.G.Dict.Encode(rdf.NewLiteral(fmt.Sprintf("ow version %d", v)))
		i := env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("OWInterest%d", v)))
		nameOf[n], interestOf[i] = v, v
		verTriples[v] = []rdf.Triple{
			{S: subj, P: name, O: n},
			{S: subj, P: interest, O: i},
		}
	}
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: statements(env.G.Dict, verTriples[0])}); err != nil {
		t.Fatal(err)
	}

	q := sparql.MustParse(env.G.Dict, `SELECT ?n ?i WHERE { <OWSoak> <name> ?n . <OWSoak> <mainInterest> ?i . }`)
	varIdx := func(vars []string, want string) int {
		for i, v := range vars {
			if v == want {
				return i
			}
		}
		return -1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	var stop atomic.Bool

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for v := 1; v <= versions; v++ {
			st, err := srv.Apply(context.Background(), serve.Batch{Del: verTriples[v-1], Ins: statements(env.G.Dict, verTriples[v])})
			if err != nil {
				errCh <- fmt.Errorf("overwrite to v%d: %w", v, err)
				return
			}
			if st.Added != 2 || st.Deleted != 2 {
				errCh <- fmt.Errorf("overwrite to v%d: added=%d deleted=%d, want 2/2", v, st.Added, st.Deleted)
				return
			}
		}
	}()
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := -1
			for !stop.Load() {
				resp, err := srv.Query(context.Background(), q)
				if errors.Is(err, serve.ErrOverloaded) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", c, err)
					return
				}
				if n := resp.Bindings.Len(); n != 1 {
					errCh <- fmt.Errorf("reader %d: %d rows, want exactly 1 (torn overwrite)", c, n)
					return
				}
				row := resp.Bindings.Rows
				ni, ii := varIdx(resp.Bindings.Vars, "n"), varIdx(resp.Bindings.Vars, "i")
				if ni < 0 || ii < 0 {
					errCh <- fmt.Errorf("reader %d: vars %v missing n/i", c, resp.Bindings.Vars)
					return
				}
				nv, okN := nameOf[row[ni]]
				iv, okI := interestOf[row[ii]]
				if !okN || !okI || nv != iv {
					errCh <- fmt.Errorf("reader %d: name v%d (known=%v) vs interest v%d (known=%v): mixed versions", c, nv, okN, iv, okI)
					return
				}
				if nv < last {
					errCh <- fmt.Errorf("reader %d: version went backwards: v%d after v%d", c, nv, last)
					return
				}
				last = nv
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final state: exactly the last version.
	resp, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ni := varIdx(resp.Bindings.Vars, "n")
	if resp.Bindings.Len() != 1 || ni < 0 || nameOf[resp.Bindings.Rows[ni]] != versions {
		t.Fatalf("final state: rows=%v, want single v%d row", resp.Bindings.Rows, versions)
	}
}
