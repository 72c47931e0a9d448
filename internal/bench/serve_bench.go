package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rdffrag/internal/exec"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
)

// ServerThroughput is the multi-client serving experiment: it drives the
// concurrent query server (internal/serve) over VF and HF deployments of
// the DBpedia-like corpus with an increasing number of clients, reporting
// sustained QPS, tail latency and plan-cache hit rate. This extends the
// paper's throughput comparison (Figure 9) from "replay the log N-wide
// against a single-query engine" to a real serving stack with admission
// control and a streaming join pipeline.
func (s *Suite) ServerThroughput() (*Table, error) {
	ds, err := s.dbpedia()
	if err != nil {
		return nil, err
	}
	sample := sampleQueries(ds.Log, s.Cfg.SampleFraction)

	t := &Table{
		ID:     "serve",
		Title:  "concurrent query server: clients vs QPS and tail latency (DBpedia-like)",
		Header: []string{"strategy", "clients", "QPS", "p50", "p95", "p99", "cache"},
	}
	maxClients := s.Cfg.Clients
	if maxClients < 4 {
		maxClients = 4
	}
	for _, strategy := range []string{"VF", "HF"} {
		runner, _, err := s.buildStrategy(ds, strategy)
		if err != nil {
			return nil, err
		}
		eng, ok := runner.(*exec.Engine)
		if !ok {
			return nil, fmt.Errorf("bench: %s runner is not an exec.Engine", strategy)
		}
		for clients := 1; clients <= maxClients; clients *= 2 {
			qps, m, err := serveRun(eng, sample, clients)
			if err != nil {
				return nil, err
			}
			t.addRow(strategy, fmt.Sprintf("%d", clients),
				fmt.Sprintf("%.0f", qps),
				m.P50.Round(10*time.Microsecond).String(),
				m.P95.Round(10*time.Microsecond).String(),
				m.P99.Round(10*time.Microsecond).String(),
				fmt.Sprintf("%.0f%%", 100*m.CacheHitRate))
		}
	}
	t.Notes = "QPS should rise with clients until site worker pools saturate; p95/p99 grow with queueing"
	return t, nil
}

// serveRun replays the sample with the given client count through a
// fresh server and returns overall QPS plus the server's metrics.
func serveRun(engine *exec.Engine, sample []*sparql.Graph, clients int) (float64, serve.Metrics, error) {
	srv := serve.New(engine, serve.Config{
		Workers:     clients,
		QueueDepth:  4*clients + len(sample),
		Timeout:     time.Minute,
		Parallelism: engine.Parallelism,
	})
	defer srv.Close()

	const reps = 3
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				for i := range sample {
					q := sample[(i+c)%len(sample)]
					if _, err := srv.Query(context.Background(), q); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("client %d: %w", c, err)
						}
						mu.Unlock()
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, serve.Metrics{}, firstErr
	}
	sec := time.Since(t0).Seconds()
	if sec <= 0 {
		sec = 1e-9
	}
	return float64(clients*reps*len(sample)) / sec, srv.Metrics(), nil
}
