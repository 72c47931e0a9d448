package serve_test

// The durability hooks on the serving layer: an Apply sink that rejects
// a batch must leave the server untouched (no published view, no gauge
// movement — the WAL layer relies on this to keep rejected batches out
// of the log's accounting), Exclusive must serialize with updates and
// publish a fresh view (the checkpointer runs under it), and a
// configured WALStats callback must surface in Metrics.

import (
	"context"
	"errors"
	"testing"

	"rdffrag/internal/cluster"
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
)

func TestUpdateApplyErrorLeavesServerUntouched(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()

	rejected := errors.New("sink rejected the batch")
	calls := 0
	srv := serve.New(engine, serve.Config{
		Apply: func(b serve.Batch) (serve.UpdateStats, error) {
			calls++
			if calls%2 == 1 {
				return serve.UpdateStats{}, rejected
			}
			return testApply(env)(b)
		},
	})
	defer srv.Close()

	ts := []rdf.Triple{{
		S: env.G.Dict.MustIRI("apply-err-s"),
		P: env.G.Dict.MustIRI("name"),
		O: env.G.Dict.MustLiteral("Apply Err"),
	}}
	if _, err := srv.Apply(context.Background(), serve.Batch{Ins: ts}); !errors.Is(err, rejected) {
		t.Fatalf("Update returned %v, want the sink's error", err)
	}
	if m := srv.Metrics(); m.Updates != 0 || m.TriplesAdded != 0 {
		t.Fatalf("rejected batch moved the update gauges: %+v", m)
	}
	// The sink's contract is reject-before-mutate; the next attempt must
	// go through cleanly and count exactly once.
	st, err := srv.Apply(context.Background(), serve.Batch{Ins: ts})
	if err != nil || st.Added != 1 {
		t.Fatalf("retry after rejection: stats %+v, err %v", st, err)
	}
	if m := srv.Metrics(); m.Updates != 1 || m.TriplesAdded != 1 {
		t.Fatalf("gauges after one good batch: %+v", m)
	}
}

func TestExclusivePublishesMaintenanceMutations(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()
	srv := serve.New(engine, serve.Config{Apply: testApply(env)})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	base, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the graphs outside the Apply sink, the way the checkpointer
	// and compact-on-save do. Without the Publish inside Exclusive the
	// next query would still be admitted against the stale view.
	srv.Exclusive(func() {
		testApply(env)(serve.Batch{Ins: []rdf.Triple{{
			S: env.G.Dict.MustIRI("exclusive-s"),
			P: env.G.Dict.MustIRI("name"),
			O: env.G.Dict.MustLiteral("Exclusive Row"),
		}}})
	})
	after, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Bindings.Len() != base.Bindings.Len()+1 {
		t.Fatalf("maintenance mutation not visible: %d rows before, %d after",
			base.Bindings.Len(), after.Bindings.Len())
	}
}

func TestMetricsSurfaceWALStats(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	env.G.Freeze()

	want := serve.WALMetrics{SyncPolicy: "always", Appends: 7, Fsyncs: 7, LastSeq: 7}
	srv := serve.New(engine, serve.Config{
		Apply:    testApply(env),
		WALStats: func() serve.WALMetrics { return want },
	})
	defer srv.Close()

	m := srv.Metrics()
	if m.WAL == nil {
		t.Fatal("WALStats configured but Metrics().WAL is nil")
	}
	if *m.WAL != want {
		t.Fatalf("Metrics().WAL = %+v, want %+v", *m.WAL, want)
	}

	plain := serve.New(engine, serve.Config{})
	defer plain.Close()
	if plain.Metrics().WAL != nil {
		t.Fatal("non-durable server must not report WAL metrics")
	}
}
