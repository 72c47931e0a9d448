package transport

// SiteClient: the control site's view of a remote fragment host. It
// implements cluster.SiteEval — the same interface the in-process
// channel path satisfies — so the executor is transport-agnostic. The
// robustness layer lives here, on the read path only (queries are
// idempotent; redelivered rows are deduplicated downstream, so
// at-least-once attempts compose into exactly-once results):
//
//   - per-frame progress deadline, armed when the request is sent: a
//     site that produces no frame for FrameTimeout — before its header
//     or mid-stream — is cut locally and retried;
//   - bounded retries with exponential backoff and jitter, each one
//     streaming the subquery's answer again from its first batch;
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
	// FrameTimeout cuts an attempt that produces no frame for this long
	// (default 10s), counted from the request for the first frame and
	// from the previous frame after that. This is a progress deadline,
	// not a total deadline: a large result streaming steadily never
	// trips it.
	FrameTimeout time.Duration
	// Breaker tunes the circuit breaker (zero value: defaults).
	Breaker BreakerConfig
}

// SiteClient evaluates subqueries against one remote site server with
// retries and a circuit breaker. Safe for concurrent use by many
// queries. It implements cluster.SiteEval and
// cluster.SiteMetricsReporter.
type SiteClient struct {
	cfg     ClientConfig
	breaker *Breaker

	calls     atomic.Uint64
	attempts  atomic.Uint64
	retriesC  atomic.Uint64
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

// outcome is one attempt's verdict.
type outcome struct {
	err       error
	retryable bool
}

// EvalStream implements cluster.SiteEval over HTTP. Batches are pushed
// to sink as they arrive; a retry after a torn stream delivers the whole
// answer again, and the control site's dedup absorbs the rows the torn
// attempt had already delivered.
func (c *SiteClient) EvalStream(ctx context.Context, req cluster.EvalRequest, batchSize int, sink cluster.BatchSink) error {
	c.calls.Add(1)
	wire := encodeRequest(req, c.cfg.Dict, batchSize)
	if err := c.breaker.Allow(); err != nil {
		c.fastFails.Add(1)
		c.failures.Add(1)
		return fmt.Errorf("%w: site %d: %v", cluster.ErrSiteUnavailable, c.cfg.Site, err)
	}

	vars := req.Query.Vars()
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
		o := c.runAttempt(ctx, wire, vars, sink)
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

// runAttempt performs one HTTP round trip and streams frames to the
// sink.
func (c *SiteClient) runAttempt(ctx context.Context, wire *evalWire, vars []string, sink cluster.BatchSink) outcome {
	c.attempts.Add(1)
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	body, err := json.Marshal(wire)
	if err != nil {
		return outcome{err: err}
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, c.cfg.BaseURL+"/eval", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")

	// Progress watchdog, armed with the request: a site that accepts it
	// and never answers is cut and retried like one that stalls
	// mid-stream, so the breaker and partial results see it too.
	watchdog := time.AfterFunc(c.cfg.FrameTimeout, cancel)
	defer watchdog.Stop()
	// broken classifies a failed round trip or frame read.
	broken := func(err error) outcome {
		switch {
		case ctx.Err() != nil:
			return outcome{err: ctx.Err()}
		case actx.Err() != nil: // watchdog fired
			return outcome{err: fmt.Errorf("transport: site %d: no frame for %v", c.cfg.Site, c.cfg.FrameTimeout), retryable: true}
		default:
			return outcome{err: fmt.Errorf("transport: site %d: %w", c.cfg.Site, err), retryable: true}
		}
	}

	resp, err := c.cfg.HTTP.Do(hreq)
	if err != nil {
		return broken(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("transport: site %d: HTTP %d: %s", c.cfg.Site, resp.StatusCode, bytes.TrimSpace(msg))
		return outcome{err: err, retryable: resp.StatusCode >= 500}
	}

	dec := json.NewDecoder(resp.Body)
	for {
		var f frame
		if err := dec.Decode(&f); err != nil {
			// EOF or read error before the done frame: torn stream.
			return broken(fmt.Errorf("stream cut: %w", err))
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
				return outcome{err: fmt.Errorf("transport: site %d: dictionary mismatch: server prefix %d does not match this deployment's dictionary", c.cfg.Site, f.DictLen)}
			}
		case "b":
			b, err := f.bindings(vars)
			if err != nil {
				return outcome{err: fmt.Errorf("transport: site %d: %w", c.cfg.Site, err), retryable: true}
			}
			if err := sink(b); err != nil {
				return outcome{err: err}
			}
		case "done":
			return outcome{}
		case "err":
			return outcome{err: fmt.Errorf("transport: site %d: remote: %s", c.cfg.Site, f.Msg), retryable: f.Retry}
		default:
			return outcome{err: fmt.Errorf("transport: site %d: unknown frame %q", c.cfg.Site, f.K), retryable: true}
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
// reconcile: Attempts + FastFails == Calls + Retries.
func (c *SiteClient) SiteMetrics() cluster.SiteMetrics {
	state, opens := c.breaker.State()
	return cluster.SiteMetrics{
		Site:         c.cfg.Site,
		Calls:        c.calls.Load(),
		Attempts:     c.attempts.Load(),
		Retries:      c.retriesC.Load(),
		Failures:     c.failures.Load(),
		FastFails:    c.fastFails.Load(),
		BreakerState: state,
		BreakerOpens: opens,
		P99:          c.p99(),
	}
}
