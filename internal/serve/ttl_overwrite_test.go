package serve_test

// TTL expiry and atomic overwrite visibility at the serving layer. The
// sweeper's contract: a triple an insert stamped with a deadline is
// deleted — through the ordinary Apply path, so the deletion is
// WAL-logged and MVCC-published wherever the sink is durable — once the
// deadline passes, and never before; a failed sweep leaves its triples
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
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

// ttlConfig is testApply with the TTL schedule a deployment keeps beside
// it: a batch's deadline stamps its inserted triples, any other write of a
// triple clears its deadline (latest write wins), and Due lists what has
// fallen due. A rejected batch changes nothing.
func ttlConfig(env *testenv.Env, apply func(serve.Batch) (serve.UpdateStats, error)) serve.Config {
	deadlines := map[rdf.Triple]time.Time{}
	return serve.Config{
		SweepInterval: -1,
		Apply: func(b serve.Batch) (serve.UpdateStats, error) {
			st, err := apply(b)
			if err != nil {
				return st, err
			}
			for _, t := range b.Del {
				delete(deadlines, t)
			}
			for _, t := range b.Ins {
				if b.Deadline.IsZero() {
					delete(deadlines, t)
				} else {
					deadlines[t] = b.Deadline
				}
			}
			return st, nil
		},
		Due: func(now time.Time) (due []rdf.Triple) {
			for t, at := range deadlines {
				if !at.After(now) {
					due = append(due, t)
				}
			}
			return due
		},
	}
}

// TestSweepExpiresTTLBatches: deterministic expiry via explicit Sweep
// calls (background sweeper disabled). Triples with a deadline vanish
// once it passes; triples without one stay.
func TestSweepExpiresTTLBatches(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()
	srv := serve.New(engine, ttlConfig(env, testApply(env)))
	defer srv.Close()

	mk := func(s, n string) []rdf.Triple {
		return []rdf.Triple{{
			S: env.G.Dict.MustIRI(s),
			P: env.G.Dict.MustIRI("name"),
			O: env.G.Dict.MustLiteral(n),
		}}
	}
	q := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	rows := func() int {
		t.Helper()
		resp, err := srv.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Bindings.Len()
	}
	baseRows := rows()

	now := time.Now()
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: mk("ttl-perm", "Permanent")}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: mk("ttl-tmp", "Temporary"), Deadline: now.Add(50 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}

	// A sweep before the deadline removes nothing.
	if n := srv.Sweep(now); n != 0 {
		t.Fatalf("premature sweep removed %d triples", n)
	}
	if got, want := rows(), baseRows+2; got != want {
		t.Fatalf("rows after a premature sweep = %d, want %d", got, want)
	}

	// Past the deadline the stamped triple goes away; the permanent one
	// survives, and a second sweep finds nothing left due.
	if n := srv.Sweep(now.Add(time.Second)); n != 1 {
		t.Fatalf("sweep removed %d triples, want 1", n)
	}
	if n := srv.Sweep(now.Add(time.Second)); n != 0 {
		t.Fatalf("second sweep removed %d triples, want 0", n)
	}
	if got, want := rows(), baseRows+1; got != want {
		t.Fatalf("rows after sweep = %d, want %d (permanent insert only)", got, want)
	}

	m := srv.Metrics()
	if m.SweepRuns != 1 || m.SweptTriples != 1 {
		t.Fatalf("sweep metrics: runs=%d swept=%d, want 1/1", m.SweepRuns, m.SweptTriples)
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
	srv := serve.New(engine, ttlConfig(env, func(b serve.Batch) (serve.UpdateStats, error) {
		if len(b.Del) > 0 && failDeletes.Load() {
			return serve.UpdateStats{}, poisoned
		}
		return apply(b)
	}))
	defer srv.Close()

	ins := []rdf.Triple{{
		S: env.G.Dict.MustIRI("ttl-requeue"),
		P: env.G.Dict.MustIRI("name"),
		O: env.G.Dict.MustLiteral("Requeue"),
	}}
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: ins, Deadline: time.Now().Add(time.Millisecond)}); err != nil {
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
	cfg := ttlConfig(env, testApply(env))
	cfg.SweepInterval = 5 * time.Millisecond
	srv := serve.New(engine, cfg)
	defer srv.Close()

	ins := []rdf.Triple{{
		S: env.G.Dict.MustIRI("ttl-bg"),
		P: env.G.Dict.MustIRI("name"),
		O: env.G.Dict.MustLiteral("Background"),
	}}
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: ins, Deadline: time.Now().Add(time.Millisecond)}); err != nil {
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
	subj := env.G.Dict.MustIRI("OWSoak")
	name := env.G.Dict.MustIRI("name")
	interest := env.G.Dict.MustIRI("mainInterest")
	// Pre-intern every version's terms so readers can map row IDs back
	// to version numbers without touching the dictionary concurrently.
	nameOf := make(map[rdf.ID]int, versions+1)
	interestOf := make(map[rdf.ID]int, versions+1)
	verTriples := make([][]rdf.Triple, versions+1)
	for v := 0; v <= versions; v++ {
		n := env.G.Dict.MustLiteral(fmt.Sprintf("ow version %d", v))
		i := env.G.Dict.MustIRI(fmt.Sprintf("OWInterest%d", v))
		nameOf[n], interestOf[i] = v, v
		verTriples[v] = []rdf.Triple{
			{S: subj, P: name, O: n},
			{S: subj, P: interest, O: i},
		}
	}
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: verTriples[0]}); err != nil {
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
			st, err := srv.Apply(context.Background(), serve.Batch{Del: verTriples[v-1], Ins: verTriples[v]})
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
				row := resp.Bindings.Row(0)
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
	if resp.Bindings.Len() != 1 || ni < 0 || nameOf[resp.Bindings.Row(0)[ni]] != versions {
		t.Fatalf("final state: rows=%v, want single v%d row", resp.Bindings.Rows, versions)
	}
}
