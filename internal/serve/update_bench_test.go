package serve_test

// BenchmarkUpdateLatencyUnderLoad measures what the MVCC design buys the
// writer: per-update latency while long-running queries (simulated
// network latency on every cluster message) are continuously in flight.
// Queries pin a view at admission and the writer appends + publishes
// without ever waiting for them, so an update costs microseconds, not a
// query's latency.

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
		Workers:    4,
		QueueDepth: 64,
		Apply:      testApply(env),
	})
	defer srv.Close()

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
				once.Do(func() { close(inFlight) })
				_, _ = srv.Query(context.Background(), slowQ)
			}
		}()
	}
	// Don't start the clock until a long query is genuinely in flight:
	// the whole point is to measure update latency against live read
	// traffic.
	<-inFlight

	// Pre-build the update batches so the timed loop is apply + publish
	// only. The triples use a predicate the benchmark query never
	// touches, so query latency stays constant no matter how far b.N
	// escalates.
	prop := env.G.Dict.Encode(rdf.NewIRI("benchProp"))
	batches := make([][][3]rdf.Term, b.N)
	for i := range batches {
		s := env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Bench%d", i)))
		batches[i] = statements(env.G.Dict, []rdf.Triple{
			{S: s, P: prop, O: env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Val%d", i%64)))},
			{S: s, P: prop, O: env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Val%d", (i+1)%64)))},
		})
	}
	lats := make([]time.Duration, 0, b.N)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		begin := time.Now()
		_, err := srv.Apply(context.Background(), serve.Batch{Ins: batches[i]})
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
