// Package serve is the concurrent query-serving layer over the
// distributed engine: bounded admission that runs each query on its
// caller's goroutine, many at once against the shared deployed cluster,
// with per-query timeouts/cancellation, an LRU plan cache keyed on the
// query's constant-free shape (the workload-aware complement of the
// paper's FAP mining — every instance of a hot shape skips the
// pattern-matching half of Algorithm 3 and only picks among its
// candidates for the constants in hand), and server-side metrics (QPS,
// latency percentiles, queue depth, cache hit rate).
//
// Reads and writes never block each other: each query pins an immutable
// MVCC read view (rdf.ViewSource) at admission and executes lock-free
// against it, while Apply appends to delta overlays and compacts under
// a writer-only mutex, publishing a new view per batch. The old
// design's RWMutex — where one long query stalled every update and a
// burst of updates starved queries — is gone from the query path
// entirely.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rdffrag/internal/exec"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// ErrOverloaded is returned when Workers+QueueDepth queries are already
// admitted; callers should back off and retry.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrClosed is returned for queries submitted after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrNoUpdater is returned by Apply when the server was configured
// without an Apply sink.
var ErrNoUpdater = errors.New("serve: no update sink configured")

// Config tunes the server. The zero value is usable.
type Config struct {
	// Workers is the number of queries executed concurrently (default 4).
	Workers int
	// QueueDepth bounds the queries admitted to wait for a slot beyond
	// Workers; any more fail fast with ErrOverloaded (default 64).
	QueueDepth int
	// Timeout is the per-query execution deadline; 0 disables it. A
	// caller context with an earlier deadline still wins.
	Timeout time.Duration
	// PlanCacheSize is the LRU plan cache capacity in query shapes
	// (default 256; negative disables caching).
	PlanCacheSize int
	// Apply, when non-nil, is the live-update sink: Server.Apply routes
	// batches through it under the server's writer mutex (updates are
	// serialized with each other, never with queries) and publishes a new
	// MVCC read view when the batch lands. In-flight queries keep reading
	// the view they pinned at admission; queries admitted afterwards see
	// the whole batch — the delete-set and insert-set land under one
	// Publish, so no reader ever sees the old triples gone but the new
	// ones absent. The callback reports what the batch did; an error
	// rejects the batch whole — the sink's contract is that it fails only
	// before mutating anything (e.g. the write-ahead-log append failed),
	// so no view is published and nothing was torn. The sink also keeps
	// the TTL schedule: a batch's Deadline stamps its inserted triples.
	Apply func(b Batch) (UpdateStats, error)
	// Due, when non-nil, lists the triples of the sink's TTL schedule
	// whose deadline is at or before now. Sweep calls it under the writer
	// mutex it then applies their deletion under.
	Due func(now time.Time) []rdf.Triple
	// SweepInterval is how often the background TTL sweeper checks for
	// expired triples (default 1s; negative disables the sweeper —
	// expiries then only fire through an explicit Sweep call). The
	// sweeper issues delete batches through the normal Apply path, so
	// swept triples are WAL-logged and MVCC-published like any delete.
	SweepInterval time.Duration
	// WALStats, when non-nil, snapshots the durability layer's counters
	// for Metrics (a server fronting a write-ahead-logged deployment).
	WALStats func() WALMetrics
}

// Batch is one atomic update: Del's triples are removed, then Ins's
// added, under a single writer-mutex hold, a single sink call and a single
// MVCC publish. An insert carries only Ins, a delete only Del, an
// overwrite both. Ins holds terms, which the sink interns as it applies
// the batch: the dictionary grows in apply order, and a batch refused
// before that adds nothing. A non-zero Deadline stamps Ins's triples to
// expire then.
type Batch struct {
	Del      []rdf.Triple
	Ins      [][3]rdf.Term
	Deadline time.Time
}

// UpdateStats reports the effect of one applied update batch.
type UpdateStats struct {
	// Added counts triples that were new to the global graph (duplicates
	// are skipped).
	Added int
	// Deleted counts triples a delete batch actually removed from the
	// deployment (tombstoning a triple that was never inserted is a
	// no-op, not an error).
	Deleted int
	// DeltaLen is the size of the hot and cold graphs' delta overlays
	// after the batch, summed (0 right after both compacted).
	DeltaLen int
	// Compactions is the hot and cold graphs' cumulative compaction
	// count, summed.
	Compactions uint64
	// Seq is the batch's write-ahead-log sequence number; 0 when the
	// deployment is not durable. The batch is recoverable iff a record
	// with this sequence number survives a crash.
	Seq uint64
}

// DefaultWorkers is Config.Workers when it is not positive.
const DefaultWorkers = 4

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Second
	}
	return c
}

// Response is one answered query.
type Response struct {
	Bindings *match.Bindings
	Stats    *exec.QueryStats
	// CacheHit reports whether the query's shape came from the plan
	// cache.
	CacheHit bool
	// Latency is the server-side execution time (slot wait included).
	Latency time.Duration
}

// Server executes queries concurrently against one deployed engine.
type Server struct {
	engine *exec.Engine
	cfg    Config
	slots  chan struct{} // one token per executing query: Workers of them
	cache  *planCache
	met    *collector

	mu       sync.RWMutex // guards closed against admissions
	closed   bool
	admitted atomic.Int64   // queries executing or waiting for a slot
	wg       sync.WaitGroup // admitted queries

	// dataMu is the writer-side mutex: it serializes update batches,
	// Exclusive maintenance and the Close barrier with each other.
	// Queries never touch it — they pin an immutable MVCC read view at
	// admission (engine.Views().Acquire) and execute lock-free against
	// it, so a long-running query neither blocks nor is blocked by
	// updates.
	dataMu sync.Mutex

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// New starts a server over a deployed engine. Call Close to stop.
func New(engine *exec.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		engine: engine,
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.Workers),
		cache:  newPlanCache(cfg.PlanCacheSize),
		met:    newCollector(),
	}
	if cfg.Apply != nil && cfg.Due != nil && cfg.SweepInterval > 0 {
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweeper(cfg.SweepInterval)
	}
	return s
}

// Close stops accepting queries and returns once every admitted query,
// waiting or executing, has finished. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
	}
	// Barrier for in-flight updates: an Apply that passed the closed
	// check before it flipped either finishes before this lock is granted
	// or re-checks closed under dataMu and backs out — after Close
	// returns, nothing mutates the deployment's graphs.
	s.dataMu.Lock()
	s.dataMu.Unlock() //nolint:staticcheck // empty critical section is the point
}

// Query executes an already-parsed query graph on the caller's goroutine
// once one of the Workers execution slots is free. Admission is
// non-blocking: beyond Workers+QueueDepth admitted queries it fails fast
// with ErrOverloaded, so overload surfaces as back-pressure instead of
// unbounded latency. The caller's ctx covers the wait and the execution.
func (s *Server) Query(ctx context.Context, q *sparql.Graph) (*Response, error) {
	start := time.Now()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	if s.admitted.Add(1) > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.admitted.Add(-1)
		s.mu.RUnlock()
		s.met.rejected.Add(1)
		return nil, ErrOverloaded
	}
	s.wg.Add(1)
	s.mu.RUnlock()
	defer func() {
		s.admitted.Add(-1)
		s.wg.Done()
	}()

	select {
	case s.slots <- struct{}{}:
	default:
		s.met.queued.Add(1)
		select {
		case s.slots <- struct{}{}:
			s.met.queued.Add(-1)
		case <-ctx.Done():
			s.met.queued.Add(-1)
			s.met.failed.Add(1)
			return nil, ctx.Err()
		}
	}
	s.met.inflight.Add(1)
	resp, err := s.execute(ctx, q, start)
	s.met.inflight.Add(-1)
	<-s.slots
	return resp, err
}

// execute runs one admitted query that holds a slot; start is when it
// was submitted.
func (s *Server) execute(ctx context.Context, q *sparql.Graph, start time.Time) (*Response, error) {
	if err := ctx.Err(); err != nil {
		// The client gave up before the query could start.
		s.met.failed.Add(1)
		return nil, err
	}
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}

	// Pin the latest published read view for the whole execution: every
	// site evaluation of this query reads the same immutable
	// (generation, delta length) cut of every graph, so the query sees a
	// consistent snapshot without taking any lock — concurrent updates
	// append and compact freely and become visible to queries admitted
	// after their Publish.
	view := s.engine.Views().Acquire()
	defer view.Close()

	prep, hit, err := s.plan(q)
	if err != nil {
		s.met.failed.Add(1)
		return nil, err
	}
	// Stamp the Prepared (this query's own: only the shape behind it is
	// cached and shared) with the view pinned at admission.
	prep.View = view
	b, stats, err := s.engine.QueryPrepared(ctx, q, prep)
	lat := time.Since(start)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.timedOut.Add(1)
		}
		s.met.failed.Add(1)
		return nil, err
	}
	if stats.Partial {
		s.met.partials.Add(1)
	}
	s.met.complete(lat)
	return &Response{Bindings: b, Stats: stats, CacheHit: hit, Latency: lat}, nil
}

// Apply applies one batch to the deployment through the configured sink.
// It takes the writer mutex — updates serialize with each other and with
// Exclusive, but never wait for queries: the graphs' delta appends and
// compactions are MVCC-safe against readers pinned to older views, and a
// new view is published once the batch has fully landed, so no query ever
// observes a torn batch. Returns ErrNoUpdater when the server has no sink
// and ErrClosed after Close. A cancelled ctx is honoured before the mutex
// is taken; once applying, the batch always completes (partial updates
// would be torn).
func (s *Server) Apply(ctx context.Context, b Batch) (UpdateStats, error) {
	return s.apply(ctx, func() (Batch, bool) { return b, true })
}

// apply applies the batch pick returns, picked under the writer mutex;
// when pick reports nothing to apply, nothing happens.
func (s *Server) apply(ctx context.Context, pick func() (Batch, bool)) (UpdateStats, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return UpdateStats{}, ErrClosed
	}
	if s.cfg.Apply == nil {
		return UpdateStats{}, ErrNoUpdater
	}
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	// Re-check under the data lock: Close does not wait on dataMu, so an
	// update that raced past the first check must not mutate graphs the
	// owner may already be tearing down or snapshotting post-Close.
	s.mu.RLock()
	closed = s.closed
	s.mu.RUnlock()
	if closed {
		return UpdateStats{}, ErrClosed
	}
	// The mutex wait is short (only other updates hold it — queries
	// never do); nothing has been applied yet, so a caller that gave up
	// while we waited still backs out cleanly.
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	b, ok := pick()
	if !ok {
		return UpdateStats{}, nil
	}
	st, err := s.cfg.Apply(b)
	if err != nil {
		// The sink rejected the batch before mutating anything (its
		// contract): no new view, no gauge movement, nothing applied.
		return UpdateStats{}, err
	}
	// Make the batch visible: capture a consistent cut of every graph as
	// the new read view. Queries admitted from here on see the whole
	// batch; queries already running keep their pinned older view.
	s.engine.Views().Publish()
	// Publish the gauges before releasing the mutex so concurrent updates
	// cannot interleave apply order and publish order (the gauge must
	// reflect the last-applied batch).
	s.met.update(st)
	return st, nil
}

// sweeper periodically expires TTL-stamped triples. It runs until Close.
func (s *Server) sweeper(interval time.Duration) {
	defer close(s.sweepDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case now := <-t.C:
			s.Sweep(now)
		}
	}
}

// Sweep deletes every triple whose TTL deadline is at or before now, as
// one ordinary delete batch through the Apply sink — WAL-logged and
// MVCC-published like any client delete — and reports how many triples
// went away. It picks the due triples under the writer mutex it applies
// them under: the latest write of a triple sets its deadline, so a pick
// made earlier could delete a triple re-stamped in between. A batch the
// sink rejects (the server closing, a poisoned WAL) changes nothing, and
// its triples stay due for the next sweep. The background sweeper calls
// this on its interval; tests and embedders may call it directly for
// deterministic expiry.
func (s *Server) Sweep(now time.Time) int {
	if s.cfg.Due == nil {
		return 0
	}
	var due []rdf.Triple
	st, err := s.apply(context.Background(), func() (Batch, bool) {
		due = s.cfg.Due(now)
		return Batch{Del: due}, len(due) > 0
	})
	if err != nil || len(due) == 0 {
		return 0
	}
	s.met.sweepRuns.Add(1)
	s.met.sweptTriples.Add(uint64(st.Deleted))
	return st.Deleted
}

// Exclusive runs fn while holding the writer mutex: no update applies
// until fn returns, and a fresh read view is published afterwards.
// Maintenance that mutates the deployment's graphs outside the Apply
// sink (the checkpointer's compaction, manual compaction) must run
// through it so its mutations serialize with updates and become visible
// to queries as one atomic cut; so must a capture that has to see one
// batch boundary (pinning the snapshots a save writes). Keep fn short:
// write the pinned snapshots after it returns. Queries keep running
// throughout — graph mutations are MVCC-safe against pinned readers.
func (s *Server) Exclusive(fn func()) {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	fn()
	s.engine.Views().Publish()
}

// plan resolves a query's execution plan: the shape of its
// decompositions through the LRU cache, then the choice among them and
// the join order for this query's constants and today's statistics. The
// flag reports a shape hit. A query with a constant the data lacks skips
// the cache for Prepare, which answers it.
func (s *Server) plan(q *sparql.Graph) (*exec.Prepared, bool, error) {
	if s.cache == nil || !q.Resolved() {
		prep, err := s.engine.Prepare(q)
		return prep, false, err
	}
	var buf [128]byte
	key := sparql.AppendShapeKey(buf[:0], q)
	shape, hit := s.cache.get(key)
	if hit {
		s.met.cacheHits.Add(1)
	} else {
		s.met.cacheMisses.Add(1)
		var err error
		if shape, err = s.engine.Shape(q); err != nil {
			return nil, false, err
		}
		s.cache.put(string(key), shape)
	}
	prep, err := s.engine.Bind(shape, q)
	return prep, hit, err
}

// Metrics returns a snapshot of the server's counters and latency
// percentiles, including the MVCC generation and pinned-snapshot
// gauges.
func (s *Server) Metrics() Metrics {
	m := s.met.snapshot()
	m.Sites = s.engine.SiteMetrics()
	views := s.engine.Views()
	m.Generations = views.Generations()
	m.PinnedSnapshots = views.PinnedSnapshots()
	if s.cfg.WALStats != nil {
		w := s.cfg.WALStats()
		m.WAL = &w
	}
	return m
}
