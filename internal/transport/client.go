package transport

// SiteClient: the control site's view of a remote fragment host. It
// implements cluster.SiteEval — the same interface the in-process
// channel path satisfies — so the executor is transport-agnostic. The
// robustness layer lives here, on the read path only (queries are
// idempotent; redelivered rows are deduplicated downstream, so
// at-least-once attempts compose into exactly-once results):
//
//   - per-frame progress deadline: a stream that stops producing frames
//     for FrameTimeout is cut locally and retried;
//   - bounded retries with exponential backoff and jitter, resuming
//     from the last acknowledged batch of the deterministic sequence
//     (the server restarts from scratch if the data epoch moved);
//   - optional hedging: if no result frame arrives within HedgeAfter, a
//     second request races the first and the first to produce a result
//     frame wins — only the winner touches the sink;
//   - a circuit breaker per client: a dead site fails fast instead of
//     burning the full retry budget on every query.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/rdf"
)

// ClientConfig configures a SiteClient.
type ClientConfig struct {
	// BaseURL is the site server's root, e.g. "http://10.0.0.7:7402".
	BaseURL string
	// Site is the site ID this client fronts (for errors and metrics).
	Site int
	// Dict is the control site's dictionary, used to encode queries.
	Dict *rdf.Dict
	// HTTP overrides the HTTP client (default: a plain http.Client).
	HTTP *http.Client
	// Retries is how many times a retryable attempt is repeated after
	// the first (default 3).
	Retries int
	// Backoff is the base retry delay (default 50ms); attempt n waits
	// Backoff·2ⁿ⁻¹ capped at 16·Backoff, jittered to 50–100%.
	Backoff time.Duration
	// FrameTimeout cuts a stream that produces no frame for this long
	// (default 10s). This is a progress deadline, not a total deadline:
	// a large result streaming steadily never trips it.
	FrameTimeout time.Duration
	// HedgeAfter, when positive, launches a second racing request if
	// the first has produced no result frame after this long. Off by
	// zero.
	HedgeAfter time.Duration
	// Breaker tunes the circuit breaker (zero value: defaults).
	Breaker BreakerConfig
}

// SiteClient evaluates subqueries against one remote site server with
// retries, resume, hedging, and a circuit breaker. Safe for concurrent
// use by many queries. It implements cluster.SiteEval and
// cluster.SiteMetricsReporter.
type SiteClient struct {
	cfg     ClientConfig
	breaker *Breaker

	calls     atomic.Uint64
	attempts  atomic.Uint64
	retriesC  atomic.Uint64
	hedgesC   atomic.Uint64
	hedgeWins atomic.Uint64
	failures  atomic.Uint64
	fastFails atomic.Uint64

	latMu  sync.Mutex
	lats   [512]time.Duration // ring of recent successful-call latencies
	latIdx int
	latN   int
}

// NewSiteClient builds a client for one remote site.
func NewSiteClient(cfg ClientConfig) *SiteClient {
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.FrameTimeout <= 0 {
		cfg.FrameTimeout = 10 * time.Second
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	return &SiteClient{cfg: cfg, breaker: NewBreaker(cfg.Breaker)}
}

// streamState is what a call's attempts share: the variables every batch
// must bind, and the resume cursor — how many batches of the
// deterministic sequence the sink has seen, and under which data epoch.
// Only a winning attempt mutates the cursor.
type streamState struct {
	vars  []string
	mu    sync.Mutex
	acked int
	epoch uint64
}

// outcome is one attempt's verdict.
type outcome struct {
	err       error
	retryable bool
	lost      bool // hedge loser: the other request won; discard
	id        int32
	claimed   bool
}

// hedgeGate elects the attempt that owns the sink: first to produce a
// result frame claims it with a CAS.
type hedgeGate struct{ won atomic.Int32 }

func (g *hedgeGate) claim(id int32) bool {
	return g.won.CompareAndSwap(0, id) || g.won.Load() == id
}
func (g *hedgeGate) claimed() bool { return g.won.Load() != 0 }

// EvalStream implements cluster.SiteEval over HTTP. Batches are pushed
// to sink in the server's deterministic sequence order; on a retry
// after a torn stream only unacknowledged batches are redelivered
// (unless the site's data moved, in which case the full sequence is
// redelivered and downstream dedup absorbs it).
func (c *SiteClient) EvalStream(ctx context.Context, req cluster.EvalRequest, batchSize int, sink cluster.BatchSink) error {
	c.calls.Add(1)
	wire, err := encodeRequest(req, c.cfg.Dict, batchSize)
	if err != nil {
		return err
	}
	if err := c.breaker.Allow(); err != nil {
		c.fastFails.Add(1)
		c.failures.Add(1)
		return fmt.Errorf("%w: site %d: %v", cluster.ErrSiteUnavailable, c.cfg.Site, err)
	}

	st := &streamState{vars: req.Query.Vars()}
	start := time.Now()
	var last outcome
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retriesC.Add(1)
			if err := c.backoffWait(ctx, attempt); err != nil {
				c.breaker.Cancel()
				c.failures.Add(1)
				return err
			}
		}
		var o outcome
		if c.cfg.HedgeAfter > 0 {
			o = c.hedgedAttempt(ctx, wire, st, sink)
		} else {
			o = c.runAttempt(ctx, wire, st, sink, nil, 1)
		}
		if o.err == nil {
			c.breaker.Success()
			c.observe(time.Since(start))
			return nil
		}
		// The caller gave up (or its sink did): not the site's fault —
		// release the breaker without a verdict.
		if ctx.Err() != nil {
			c.breaker.Cancel()
			c.failures.Add(1)
			return ctx.Err()
		}
		if !o.retryable {
			c.breaker.Cancel()
			c.failures.Add(1)
			return o.err
		}
		c.breaker.Failure()
		last = o
	}
	c.failures.Add(1)
	return fmt.Errorf("%w: site %d: retries exhausted: %v", cluster.ErrSiteUnavailable, c.cfg.Site, last.err)
}

// hedgedAttempt races up to two requests for one retry-loop attempt.
// The second launches only if the first has claimed no result frame
// after HedgeAfter. Losers are cancelled and their outcomes discarded.
func (c *SiteClient) hedgedAttempt(ctx context.Context, wire *evalWire, st *streamState, sink cluster.BatchSink) outcome {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	gate := &hedgeGate{}
	ch := make(chan outcome, 2) // buffered: attempts never block exiting
	launch := func(id int32) {
		go func() { ch <- c.runAttempt(actx, wire, st, sink, gate, id) }()
	}
	launch(1)
	launched := 1
	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	var first *outcome
	for {
		select {
		case <-timer.C:
			if launched == 1 && !gate.claimed() && actx.Err() == nil {
				c.hedgesC.Add(1)
				launch(2)
				launched = 2
			}
		case o := <-ch:
			if o.lost {
				continue // the other request won; wait for its outcome
			}
			if o.claimed {
				cancel()
				if o.id == 2 {
					c.hedgeWins.Add(1)
				}
				return o
			}
			if launched == 2 && first == nil {
				first = &o
				continue // one unclaimed failure; the race may still win
			}
			cancel()
			if first != nil && first.retryable && !o.retryable {
				return *first
			}
			return o
		}
	}
}

// runAttempt performs one HTTP round trip and streams frames to the
// sink. With a gate, the attempt must claim it on its first result
// frame before touching the sink or the shared resume state.
func (c *SiteClient) runAttempt(ctx context.Context, wire *evalWire, st *streamState, sink cluster.BatchSink, gate *hedgeGate, id int32) outcome {
	c.attempts.Add(1)
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	st.mu.Lock()
	req := *wire
	req.Resume = st.acked
	req.Epoch = st.epoch
	st.mu.Unlock()
	body, err := json.Marshal(&req)
	if err != nil {
		return outcome{err: err, id: id}
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, c.cfg.BaseURL+"/eval", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err, id: id}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.HTTP.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return outcome{err: ctx.Err(), id: id}
		}
		return outcome{err: fmt.Errorf("transport: site %d: %w", c.cfg.Site, err), retryable: true, id: id}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("transport: site %d: HTTP %d: %s", c.cfg.Site, resp.StatusCode, bytes.TrimSpace(msg))
		return outcome{err: err, retryable: resp.StatusCode >= 500, id: id}
	}

	// Progress watchdog: cut the stream if no frame lands in time.
	watchdog := time.AfterFunc(c.cfg.FrameTimeout, cancel)
	defer watchdog.Stop()

	dec := json.NewDecoder(resp.Body)
	claimed := gate == nil
	acked, epoch := 0, uint64(0)
	for {
		var f frame
		if err := dec.Decode(&f); err != nil {
			switch {
			case ctx.Err() != nil:
				if gate != nil && gate.claimed() && !claimed {
					return outcome{lost: true, id: id}
				}
				return outcome{err: ctx.Err(), id: id}
			case actx.Err() != nil: // watchdog fired
				return outcome{err: fmt.Errorf("transport: site %d: no frame for %v", c.cfg.Site, c.cfg.FrameTimeout), retryable: true, id: id, claimed: claimed && gate != nil}
			default: // EOF or read error before the done frame: torn stream
				return outcome{err: fmt.Errorf("transport: site %d: stream cut: %w", c.cfg.Site, err), retryable: true, id: id, claimed: claimed && gate != nil}
			}
		}
		watchdog.Reset(c.cfg.FrameTimeout)
		switch f.K {
		case "hdr":
			// Dictionary agreement, server side: the header fingerprints
			// the shared dictionary prefix (the server already verified
			// our stamp covers its side). Rows are raw IDs, so a mismatch
			// means every row would decode to the wrong terms — fail the
			// call outright; a retry cannot heal a diverged deployment.
			if f.DictLen > 0 && f.DictLen <= c.cfg.Dict.Len() && c.cfg.Dict.Fingerprint(f.DictLen) != f.DictFP {
				return outcome{err: fmt.Errorf("transport: site %d: dictionary mismatch: server prefix %d does not match this deployment's dictionary", c.cfg.Site, f.DictLen), id: id, claimed: claimed}
			}
			// The server echoes the resume it accepted: Skip==Resume when
			// honored, 0 when the epoch moved and the stream restarts.
			acked, epoch = f.Skip, f.Epoch
		case "b":
			if !claimed {
				if !gate.claim(id) {
					return outcome{lost: true, id: id}
				}
				claimed = true
			}
			if f.Seq < acked {
				continue // defensive: duplicate of an acknowledged batch
			}
			if f.Seq != acked {
				return outcome{err: fmt.Errorf("transport: site %d: batch %d out of order (want %d)", c.cfg.Site, f.Seq, acked), retryable: true, id: id, claimed: true}
			}
			b, err := f.bindings(st.vars)
			if err != nil {
				return outcome{err: fmt.Errorf("transport: site %d: %w", c.cfg.Site, err), retryable: true, id: id, claimed: true}
			}
			if err := sink(b); err != nil {
				return outcome{err: err, id: id, claimed: true}
			}
			acked++
			st.mu.Lock()
			st.acked, st.epoch = acked, epoch
			st.mu.Unlock()
		case "done":
			if !claimed {
				if !gate.claim(id) {
					return outcome{lost: true, id: id}
				}
				claimed = true
			}
			return outcome{id: id, claimed: true}
		case "err":
			return outcome{err: fmt.Errorf("transport: site %d: remote: %s", c.cfg.Site, f.Msg), retryable: f.Retry, id: id, claimed: claimed}
		default:
			return outcome{err: fmt.Errorf("transport: site %d: unknown frame %q", c.cfg.Site, f.K), retryable: true, id: id, claimed: claimed}
		}
	}
}

// backoffWait sleeps before retry n (1-based): Backoff·2ⁿ⁻¹ capped at
// 16·Backoff, jittered down to 50–100% so synchronized clients spread.
func (c *SiteClient) backoffWait(ctx context.Context, attempt int) error {
	d := c.cfg.Backoff
	for i := 1; i < attempt && d < 16*c.cfg.Backoff; i++ {
		d *= 2
	}
	if max := 16 * c.cfg.Backoff; d > max {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// observe records a successful call's latency in the ring.
func (c *SiteClient) observe(d time.Duration) {
	c.latMu.Lock()
	c.lats[c.latIdx] = d
	c.latIdx = (c.latIdx + 1) % len(c.lats)
	if c.latN < len(c.lats) {
		c.latN++
	}
	c.latMu.Unlock()
}

// p99 computes the 99th-percentile latency over the ring.
func (c *SiteClient) p99() time.Duration {
	c.latMu.Lock()
	n := c.latN
	sample := append([]time.Duration(nil), c.lats[:n]...)
	c.latMu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	idx := (n*99 + 99) / 100
	if idx >= n {
		idx = n - 1
	}
	return sample[idx]
}

// SiteMetrics implements cluster.SiteMetricsReporter. The counters
// reconcile: Attempts + FastFails == Calls + Retries + Hedges.
func (c *SiteClient) SiteMetrics() cluster.SiteMetrics {
	state, opens := c.breaker.State()
	return cluster.SiteMetrics{
		Site:         c.cfg.Site,
		Calls:        c.calls.Load(),
		Attempts:     c.attempts.Load(),
		Retries:      c.retriesC.Load(),
		Hedges:       c.hedgesC.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		Failures:     c.failures.Load(),
		FastFails:    c.fastFails.Load(),
		BreakerState: state,
		BreakerOpens: opens,
		P99:          c.p99(),
	}
}
