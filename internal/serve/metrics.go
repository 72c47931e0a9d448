package serve

import (
	"sync/atomic"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/metrics"
)

// latencyWindow is how many recent per-query latencies the percentile
// estimator keeps (a sliding window; old samples are overwritten).
const latencyWindow = 4096

// Metrics is a point-in-time snapshot of the server's behaviour.
type Metrics struct {
	// Uptime since the server started.
	Uptime time.Duration
	// Completed, Failed, Rejected and TimedOut count finished queries;
	// TimedOut is the subset of Failed that hit the per-query deadline.
	Completed uint64
	Failed    uint64
	Rejected  uint64
	TimedOut  uint64
	// QueueDepth and InFlight are instantaneous gauges: the admitted
	// queries waiting for an execution slot, and those executing.
	QueueDepth int
	InFlight   int
	// QPS is completed queries per second of uptime.
	QPS float64
	// P50, P95 and P99 are latency percentiles over the recent window
	// (zero until the first completion).
	P50, P95, P99 time.Duration
	// CacheHits/CacheMisses count plan-cache lookups; CacheHitRate is
	// hits over lookups (zero when no lookups happened).
	CacheHits    uint64
	CacheMisses  uint64
	CacheHitRate float64
	// Updates counts applied live-update batches (inserts and deletes);
	// TriplesAdded is the total of new triples insert batches contributed
	// (duplicates excluded) and TriplesDeleted the total delete batches
	// removed (absent triples excluded).
	Updates        uint64
	TriplesAdded   uint64
	TriplesDeleted uint64
	// DeltaLen is the hot and cold graphs' summed delta overlay size
	// after the most recent update (0 right after both compacted);
	// Compactions is their summed cumulative compaction count. Both are
	// zero until the first update.
	DeltaLen    int
	Compactions uint64
	// SweepRuns counts TTL sweeper passes that issued a delete batch for
	// expired triples (idle passes with nothing due are not counted);
	// SweptTriples totals the triples those batches actually removed.
	SweepRuns    uint64
	SweptTriples uint64
	// PartialResults counts completed queries that returned flagged
	// partial results because one or more remote sites stayed
	// unavailable through their retry budget (degraded mode only;
	// strict mode fails such queries instead).
	PartialResults uint64
	// Sites reports per-remote-site robustness counters (calls,
	// retries, failures, breaker state, p99), ordered by site ID; empty
	// when every site is in-process.
	Sites []cluster.SiteMetrics
	// Generations counts CSR generations still alive across the
	// deployment's graphs (current plus retired-but-pinned);
	// PinnedSnapshots counts snapshot pins currently held by in-flight
	// queries. Together they are the MVCC health gauges: Generations
	// settling back to the graph count after updates shows old
	// generations being reclaimed once their last reader drains.
	Generations     int
	PinnedSnapshots int
	// WAL reports the durability layer's counters; nil when the server
	// fronts a non-durable deployment (Config.WALStats unset).
	WAL *WALMetrics
}

// WALMetrics is the durability layer's snapshot: write-ahead-log
// counters plus checkpoint/recovery progress.
type WALMetrics struct {
	// SyncPolicy is the configured fsync policy ("always", "interval",
	// "none").
	SyncPolicy string
	// Appends, Fsyncs and AppendedBytes count WAL records written,
	// completed fsyncs and on-disk bytes appended since startup.
	Appends       uint64
	Fsyncs        uint64
	AppendedBytes uint64
	// LiveBytes and Segments describe the log's current footprint;
	// LastSeq is the newest record's sequence number.
	LiveBytes int64
	Segments  int
	LastSeq   uint64
	// CheckpointSeq is the WAL sequence the latest checkpoint covers;
	// Checkpoints counts checkpoints written since startup.
	CheckpointSeq uint64
	Checkpoints   uint64
	// ReplayedRecords is how many WAL records startup recovery applied
	// (0 after a clean shutdown).
	ReplayedRecords uint64
	// AppendP99 and FsyncP99 are recent-window latency percentiles.
	AppendP99 time.Duration
	FsyncP99  time.Duration
}

// collector accumulates metrics from concurrent queries.
type collector struct {
	start        time.Time
	completed    atomic.Uint64
	failed       atomic.Uint64
	rejected     atomic.Uint64
	timedOut     atomic.Uint64
	queued       atomic.Int64
	inflight     atomic.Int64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	partials     atomic.Uint64 // completions flagged partial (sites skipped)
	updates      atomic.Uint64 // applied live-update batches
	triplesAdd   atomic.Uint64 // new triples insert batches contributed
	triplesDel   atomic.Uint64 // triples delete batches removed
	deltaGauge   atomic.Int64  // hot+cold delta size after the last update
	compactions  atomic.Uint64 // hot+cold cumulative compactions
	sweepRuns    atomic.Uint64 // TTL sweeps that issued a delete batch
	sweptTriples atomic.Uint64 // triples TTL sweeps removed

	lats *metrics.Window // recent query latencies
}

func newCollector() *collector {
	return &collector{start: time.Now(), lats: metrics.NewWindow(latencyWindow)}
}

// update records one applied live-update batch.
func (m *collector) update(st UpdateStats) {
	m.updates.Add(1)
	m.triplesAdd.Add(uint64(st.Added))
	m.triplesDel.Add(uint64(st.Deleted))
	m.deltaGauge.Store(int64(st.DeltaLen))
	m.compactions.Store(st.Compactions)
}

func (m *collector) complete(lat time.Duration) {
	m.completed.Add(1)
	m.lats.Observe(lat)
}

func (m *collector) snapshot() Metrics {
	s := Metrics{
		Uptime:         time.Since(m.start),
		Completed:      m.completed.Load(),
		Failed:         m.failed.Load(),
		Rejected:       m.rejected.Load(),
		TimedOut:       m.timedOut.Load(),
		QueueDepth:     int(m.queued.Load()),
		InFlight:       int(m.inflight.Load()),
		CacheHits:      m.cacheHits.Load(),
		CacheMisses:    m.cacheMisses.Load(),
		PartialResults: m.partials.Load(),
		Updates:        m.updates.Load(),
		TriplesAdded:   m.triplesAdd.Load(),
		TriplesDeleted: m.triplesDel.Load(),
		DeltaLen:       int(m.deltaGauge.Load()),
		Compactions:    m.compactions.Load(),
		SweepRuns:      m.sweepRuns.Load(),
		SweptTriples:   m.sweptTriples.Load(),
	}
	if sec := s.Uptime.Seconds(); sec > 0 {
		s.QPS = float64(s.Completed) / sec
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	p := m.lats.Percentiles(0.50, 0.95, 0.99)
	s.P50, s.P95, s.P99 = p[0], p[1], p[2]
	return s
}
