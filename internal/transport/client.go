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
//     burning the full retry budget on every query;
//   - every stream read to EOF, past its done frame, so its connection
//     goes back to the pool and the next call reuses it instead of
//     dialling (NewHTTPClient sizes that pool).

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/metrics"
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
	// HTTP overrides the HTTP client (default: http.DefaultClient, which
	// keeps 2 idle connections per host; see NewHTTPClient).
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
	breaker *breaker
	// eval is the request every /eval attempt is a copy of: its URL is
	// parsed once, and its header map, empty, is shared by every attempt
	// and never written to. evalErr is why there is none.
	eval    *http.Request
	evalErr error

	calls     atomic.Uint64
	attempts  atomic.Uint64
	retriesC  atomic.Uint64
	failures  atomic.Uint64
	fastFails atomic.Uint64

	lats *metrics.Window // recent successful-call latencies
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
	cfg.HTTP = cmp.Or(cfg.HTTP, http.DefaultClient)
	c := &SiteClient{cfg: cfg, breaker: newBreaker(cfg.Breaker), lats: metrics.NewWindow(512)}
	c.eval, c.evalErr = http.NewRequest(http.MethodPost, cfg.BaseURL+"/eval", nil)
	return c
}

// NewHTTPClient returns an HTTP client for SiteClients that share it:
// http.DefaultTransport's settings, but keeping up to idlePerHost idle
// connections to each site process instead of 2, so that as many /eval
// streams as run at once each find one to reuse, and asking for no gzip,
// which a site does not write (the header costs a map per request).
func NewHTTPClient(idlePerHost int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DisableCompression = true
	t.MaxIdleConnsPerHost = idlePerHost
	t.MaxIdleConns = 0 // the per-host bound is the bound
	return &http.Client{Transport: t}
}

// outcome is one attempt's verdict; refused marks the sink's own error,
// torn a stream that ended before its terminal frame.
type outcome struct {
	err       error
	retryable bool
	refused   bool
	torn      bool
}

// EvalStream implements cluster.SiteEval over HTTP. Batches are pushed
// to sink as they arrive; a retry after a torn stream delivers the whole
// answer again, and the control site's dedup absorbs the rows the torn
// attempt had already delivered.
func (c *SiteClient) EvalStream(ctx context.Context, req cluster.EvalRequest, batchSize int, sink cluster.BatchSink) error {
	c.calls.Add(1)
	// Stamp the client dictionary state. Prefix fingerprints are
	// immutable (the dictionary is append-only), so the stamp stays valid
	// across every retry of this request, which sends these very bytes.
	dictLen := c.cfg.Dict.Len()
	body := appendRequest(make([]byte, 0, 64+32*len(req.Query.Edges)), req, batchSize, dictLen, c.cfg.Dict.Fingerprint(dictLen))
	if err := c.breaker.allow(); err != nil {
		c.fastFails.Add(1)
		c.failures.Add(1)
		return fmt.Errorf("%w: site %d: %v", cluster.ErrSiteUnavailable, c.cfg.Site, err)
	}

	vars := req.Vars
	if vars == nil {
		vars = req.Query.Vars()
	}
	start := time.Now()
	var last outcome
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retriesC.Add(1)
			if err := c.backoffWait(ctx, attempt); err != nil {
				c.breaker.cancel()
				c.failures.Add(1)
				return err
			}
		}
		o := c.runAttempt(ctx, body, vars, sink)
		if o.err == nil {
			c.breaker.success()
			c.lats.Observe(time.Since(start))
			return nil
		}
		// The sink had enough (a satisfied LIMIT), or the caller gave up:
		// not the site's fault — release the breaker without a verdict.
		if o.refused {
			c.breaker.cancel()
			return o.err
		}
		if ctx.Err() != nil {
			c.breaker.cancel()
			c.failures.Add(1)
			return ctx.Err()
		}
		if !o.retryable {
			c.breaker.cancel()
			c.failures.Add(1)
			return o.err
		}
		c.breaker.failure()
		last = o
	}
	c.failures.Add(1)
	return fmt.Errorf("%w: site %d: retries exhausted: %v", cluster.ErrSiteUnavailable, c.cfg.Site, last.err)
}

// runAttempt performs one HTTP round trip and streams frames to the
// sink.
func (c *SiteClient) runAttempt(ctx context.Context, body []byte, vars []string, sink cluster.BatchSink) outcome {
	c.attempts.Add(1)
	if c.evalErr != nil {
		return outcome{err: c.evalErr}
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	hreq := c.eval.WithContext(actx)
	hreq.Body, hreq.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	// net/http resends the body on a fresh connection when a pooled one
	// turns out closed before the request was written.
	hreq.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }

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

	br := readers.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	o := readFrames(br, vars, sink, func() { watchdog.Reset(c.cfg.FrameTimeout) })
	switch {
	case o.torn:
		return broken(o.err)
	case o.err != nil && !o.refused:
		o.err = fmt.Errorf("transport: site %d: %w", c.cfg.Site, o.err)
	}
	return o
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

// SiteMetrics implements cluster.SiteMetricsReporter. The counters
// reconcile: Attempts + FastFails == Calls + Retries.
func (c *SiteClient) SiteMetrics() cluster.SiteMetrics {
	state, opens := c.breaker.status()
	return cluster.SiteMetrics{
		Site:         c.cfg.Site,
		Calls:        c.calls.Load(),
		Attempts:     c.attempts.Load(),
		Retries:      c.retriesC.Load(),
		Failures:     c.failures.Load(),
		FastFails:    c.fastFails.Load(),
		BreakerState: state,
		BreakerOpens: opens,
		P99:          c.lats.Percentiles(0.99)[0],
	}
}
