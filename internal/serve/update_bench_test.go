package serve_test

// BenchmarkUpdateLatencyUnderLoad measures what the MVCC redesign buys
// the writer: per-update latency while long-running queries (simulated
// network latency on every cluster message) are continuously in flight.
//
//   - /mvcc is the shipping architecture: queries pin a view at
//     admission and the writer appends + publishes without ever waiting
//     for them.
//   - /rwlock replays the pre-MVCC architecture on the same server: each
//     query holds a reader lock for its full duration and the writer
//     takes the write lock per batch — so every update waits out
//     whatever query currently holds the data lock.
//
// The ns/op gap (and the reported p99-ns metric) between the two is the
// headline number of the redesign: updates drop from
// query-latency-bound to microseconds.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/exec"
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

func BenchmarkUpdateLatencyUnderLoad(b *testing.B) {
	b.Run("mvcc", func(b *testing.B) { benchUpdateUnderLoad(b, false) })
	b.Run("rwlock", func(b *testing.B) { benchUpdateUnderLoad(b, true) })
}

func benchUpdateUnderLoad(b *testing.B, lockBased bool) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	c := cluster.New(4, 2)
	c.Latency = cluster.Delay{PerMessage: 2 * time.Millisecond}
	engine, err := exec.New(c, env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		b.Fatalf("exec.New: %v", err)
	}
	env.G.Freeze()
	srv := serve.New(engine, serve.Config{
		Workers:     4,
		QueueDepth:  64,
		Parallelism: 2,
		Apply:       testApply(env),
	})
	defer srv.Close()

	// dataMu simulates the retired architecture: under /rwlock every
	// query holds the read half for its full flight time and each update
	// takes the write half. Under /mvcc it is never touched.
	var dataMu sync.RWMutex
	slowQ := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	stop := make(chan struct{})
	inFlight := make(chan struct{}) // closed once the first query is running
	var once sync.Once
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if lockBased {
					dataMu.RLock()
				}
				once.Do(func() { close(inFlight) })
				_, _ = srv.Query(context.Background(), slowQ)
				if lockBased {
					dataMu.RUnlock()
				}
			}
		}()
	}
	// Don't start the clock until a long query is genuinely in flight
	// (and, under /rwlock, holding the read lock): the whole point is to
	// measure update latency against live read traffic.
	<-inFlight

	// Pre-build the update batches so the timed loop is lock-wait +
	// apply + publish only. The triples use a predicate the benchmark
	// query never touches, so query latency (and with it the rwlock wait)
	// stays constant no matter how far b.N escalates.
	prop := env.G.Dict.MustIRI("benchProp")
	batches := make([][]rdf.Triple, b.N)
	for i := range batches {
		s := env.G.Dict.MustIRI(fmt.Sprintf("Bench%d", i))
		batches[i] = []rdf.Triple{
			{S: s, P: prop, O: env.G.Dict.MustIRI(fmt.Sprintf("Val%d", i%64))},
			{S: s, P: prop, O: env.G.Dict.MustIRI(fmt.Sprintf("Val%d", (i+1)%64))},
		}
	}
	lats := make([]time.Duration, 0, b.N)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		begin := time.Now()
		if lockBased {
			dataMu.Lock()
		}
		_, err := srv.Apply(context.Background(), serve.Batch{Ins: batches[i]})
		if lockBased {
			dataMu.Unlock()
		}
		if err != nil {
			b.Fatalf("Update: %v", err)
		}
		lats = append(lats, time.Since(begin))
	}
	b.StopTimer()
	close(stop)
	readers.Wait()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	if len(lats)*99/100 >= len(lats) {
		p99 = lats[len(lats)-1]
	}
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
}
