package rdffrag

import (
	"cmp"
	"context"
	"io"
	"sync/atomic"
	"time"

	"rdffrag/internal/persist"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
)

// ServerConfig tunes a concurrent query server. The zero value is usable:
// 4 workers, a 64-slot admission queue, no per-query timeout, a 256-entry
// plan cache.
type ServerConfig struct {
	// Workers is the number of queries executed concurrently.
	Workers int
	// QueueDepth bounds the admission queue; beyond it Query fails fast
	// with ErrOverloaded.
	QueueDepth int
	// Timeout is the per-query execution deadline (0 = none), counted
	// from when the query gets its slot. It rides on the query's plan: an
	// in-process site evaluation checks it while it waits for a site
	// worker and as each batch it ships arrives; one beside others or at
	// a remote site reads it from its context.
	Timeout time.Duration
	// PlanCacheSize is the LRU plan cache capacity in query shapes
	// (0 = 256; negative disables).
	PlanCacheSize int
	// Remote configures networked sites: which site IDs are served by
	// external `rdffrag site` processes, and the retry / progress-deadline
	// / circuit-breaker / degradation policy used to reach them. The zero
	// value keeps every site in-process. A server with any remote site
	// refuses updates (ErrRemoteSites) and sweeps nothing.
	Remote RemoteConfig
	// Durable routes every update batch through a write-ahead log before
	// it is acknowledged (see OpenDurable). The Durable must be bound —
	// via Recover or Bootstrap — to the same deployment this server
	// fronts. Nil serves without durability.
	Durable *Durable
	// TTL, when positive, is the default time-to-live stamped onto every
	// inserted batch (plain inserts and the insert side of overwrites):
	// the background sweeper deletes the batch's triples through the
	// normal durable update path once TTL elapses. Per-request X-TTL
	// headers override it; zero leaves triples permanent. The latest write
	// of a triple decides its deadline, and a durable server logs and
	// checkpoints it, so it survives a restart.
	TTL time.Duration
	// SweepInterval is how often the TTL sweeper checks for expired
	// triples (0 = 1s; negative disables the background sweeper).
	SweepInterval time.Duration
}

// ErrOverloaded is returned by Server.Query when the admission queue is
// full.
var ErrOverloaded = serve.ErrOverloaded

// ErrServerClosed is returned by Server.Query after Close.
var ErrServerClosed = serve.ErrClosed

// Server answers queries concurrently over one deployment, each on its
// caller's goroutine behind bounded admission, with per-query
// cancellation and a plan cache keyed on the query's constant-free shape.
type Server struct {
	dep     *Deployment
	inner   *serve.Server
	durable *Durable // nil when serving without durability
	ttl     time.Duration
	// remote is set when the server was started with remote sites: its
	// updates are refused with ErrRemoteSites.
	remote bool

	// draining flips once shutdown begins (MarkDraining or Close) so
	// /healthz can tell load balancers to stop routing here while
	// in-flight work finishes.
	draining atomic.Bool

	// respWriteErrs counts response bodies the HTTP layer failed to
	// write after the status line was already sent (client gone,
	// connection reset): the status can't change anymore, so the metric
	// is the observable.
	respWriteErrs atomic.Uint64
}

// StartServer starts a concurrent query server over the deployment.
// Close it when done. The server accepts live updates (Update) alongside
// queries without either blocking the other: each query pins an
// immutable MVCC read view at admission, and each update batch appends
// to the graphs' delta overlays and publishes a fresh view when it
// lands, so every query sees a consistent batch-atomic snapshot.
func (dep *Deployment) StartServer(cfg ServerConfig) *Server {
	// Materialize and place the cold fragment up front: the query router
	// reads fragmentation/allocation metadata lock-free while serving, so
	// it must be static from here on (updates only append triples).
	dep.ensureColdFragment()
	dep.wireRemotes(cfg.Remote, cmp.Or(max(cfg.Workers, 0), serve.DefaultWorkers))
	apply := func(b serve.Batch) (serve.UpdateStats, error) {
		return dep.applyBatch(b), nil
	}
	due := dep.due
	if len(cfg.Remote.Sites) > 0 {
		due = nil // a sweep is a batch too, which site processes never receive
	}
	var walStats func() serve.WALMetrics
	if cfg.Durable != nil {
		if cfg.Durable.dep != dep {
			panic("rdffrag: ServerConfig.Durable is bound to a different deployment (Recover/Bootstrap it with this one)")
		}
		apply = cfg.Durable.applyDurable
		walStats = cfg.Durable.walMetrics
	}
	s := &Server{
		dep:     dep,
		durable: cfg.Durable,
		ttl:     cfg.TTL,
		remote:  len(cfg.Remote.Sites) > 0,
		inner: serve.New(dep.engine, serve.Config{
			Workers:       cfg.Workers,
			QueueDepth:    cfg.QueueDepth,
			Timeout:       cfg.Timeout,
			PlanCacheSize: cfg.PlanCacheSize,
			SweepInterval: cfg.SweepInterval,
			Apply:         apply,
			Due:           due,
			WALStats:      walStats,
		}),
	}
	if cfg.Durable != nil {
		cfg.Durable.start(s)
	}
	return s
}

// Query parses and executes one query through the server, honouring ctx
// for cancellation, as Deployment.Query does. Safe for concurrent use.
func (s *Server) Query(ctx context.Context, query string) (*Result, error) {
	return decoded(s.answer(ctx, query))
}

// QueryParsed executes an already-parsed query graph through the server.
func (s *Server) QueryParsed(ctx context.Context, q *sparql.Graph) (*Result, error) {
	return decoded(s.answerParsed(ctx, q))
}

// answer is Query stopping at the ID table, all that /query encodes.
func (s *Server) answer(ctx context.Context, query string) (*Result, error) {
	q, err := sparql.NewLookupParser(s.dep.db.graph.Dict).Parse(query)
	if err != nil {
		return nil, err
	}
	return s.answerParsed(ctx, q)
}

// answerParsed runs q through the serving layer, which writes the
// query's statistics straight into the Result it answers with.
func (s *Server) answerParsed(ctx context.Context, q *sparql.Graph) (*Result, error) {
	res := new(Result)
	b, _, err := s.inner.Answer(ctx, q, &res.Stats)
	if err != nil {
		return nil, err
	}
	return s.dep.newResult(res, q, b), nil
}

// Close stops accepting queries and waits for in-flight work to finish.
// On a durable server it then writes a final checkpoint, stamps the data
// directory with a clean-shutdown marker (so the next start skips WAL
// replay) and closes the log — this is what makes graceful shutdown
// lossless even under the "interval" sync policy.
func (s *Server) Close() {
	s.draining.Store(true)
	s.inner.Close()
	if s.durable != nil {
		s.durable.shutdown()
	}
}

// MarkDraining flips the server into draining mode: /healthz starts
// answering 503 so load balancers stop routing here, while queries and
// updates keep being served. Call it when graceful shutdown begins
// (SIGTERM), before the HTTP listener drains; Close flips it too.
func (s *Server) MarkDraining() { s.draining.Store(true) }

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Save snapshots the deployment without holding up updates: under the
// server's writer mutex it only pins a snapshot of each graph and copies
// the fragments' sites, one batch boundary, and it writes them once the
// mutex is released. It changes nothing. Use this instead of
// Deployment.Save while the server is live.
func (s *Server) Save(w io.Writer) error {
	var img *persist.Image
	s.inner.Exclusive(func() { img = s.dep.capture(0) })
	defer img.Close()
	return persist.Save(w, img)
}

// ServerMetrics mirrors the serving layer's snapshot for API consumers.
type ServerMetrics = serve.Metrics

// Metrics reports QPS, latency percentiles, queue depth and cache hit
// rate since the server started.
func (s *Server) Metrics() ServerMetrics { return s.inner.Metrics() }
