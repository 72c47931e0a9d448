// Package cluster models the distributed substrate of the paper's
// evaluation (Section 8.1: a 10-machine cluster running gStore per site
// with MPI joins). Sites are worker-pool goroutines, each storing one
// graph — the union of its hot fragments — beside the cold graph where
// it hosts the cold fragment; the in-process RPC path is channel-based with byte and message
// accounting, so experiments can compare the communication behaviour of
// fragmentation strategies on one machine. The same site RPC surface
// (EvalRequest/EvalStream, abstracted by SiteEval) is also served over
// real sockets by internal/transport, which lets the control site mix
// in-process sites with remote fragment-host processes; the Chaos
// injector (chaos.go) makes that HTTP path fail deterministically.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// ErrSiteUnavailable marks a site evaluation that failed for
// availability reasons — retries exhausted, circuit breaker open,
// process down — rather than a bad request. The engine's
// partial-results mode (exec.Engine.PartialResults) degrades gracefully
// on exactly this class of error: the unreachable site's contribution
// is skipped and the result is flagged partial instead of failing the
// whole query.
var ErrSiteUnavailable = errors.New("cluster: site unavailable")

// SiteEval is the site RPC surface: evaluate a subquery at one site and
// stream binding batches back. It is implemented by the in-process
// *Cluster (channel RPC) and by transport.SiteClient (HTTP with
// retries and a circuit breaker), so the engine is
// transport-agnostic and a deployment can mix local and remote sites.
type SiteEval interface {
	EvalStream(ctx context.Context, req EvalRequest, batchSize int, sink BatchSink) error
}

// SiteMetrics is one remote site client's robustness counters, reported
// under /metrics tagged by site ID. The in-process channel path has no
// client wrapper and reports none.
type SiteMetrics struct {
	// Site is the site ID the client talks to.
	Site int
	// Calls counts EvalStream invocations; Attempts counts HTTP
	// attempts made for them (initial tries + Retries; calls rejected
	// by an open breaker make no attempt, so
	// Attempts + FastFails == Calls + Retries reconciles).
	Calls    uint64
	Attempts uint64
	// Retries counts re-attempts after a retryable failure (transport
	// errors, injected faults, torn streams, per-frame timeouts).
	Retries uint64
	// Failures counts calls that returned an error: retries exhausted,
	// a non-retryable error, the caller giving up, or a fast fail. A
	// failed attempt that a retry then masks is not one, nor is a call
	// whose sink refused a batch (a satisfied LIMIT stops taking rows).
	Failures uint64
	// FastFails counts calls rejected immediately by an open breaker
	// (no attempt was made).
	FastFails uint64
	// BreakerState is "closed", "open" or "half-open"; BreakerOpens
	// counts closed/half-open → open transitions.
	BreakerState string
	BreakerOpens uint64
	// P99 is the 99th-percentile latency of successful eval calls over
	// a recent window (0 until the first success).
	P99 time.Duration
}

// SiteMetricsReporter is implemented by site evaluators that track
// per-site robustness counters (transport.SiteClient).
type SiteMetricsReporter interface {
	SiteMetrics() SiteMetrics
}

// Delay models network cost: every message pays PerMessage, plus PerKB
// per kilobyte shipped. Zero values mean an idealized free network (the
// default, used by unit tests); the benchmark harness configures LAN-like
// delays so that communication cost — the quantity the paper's
// fragmentation strategies optimize — actually shows up in measurements.
type Delay struct {
	PerMessage time.Duration
	PerKB      time.Duration
}

func (d Delay) wait(ctx context.Context, bytes int) error {
	if d.PerMessage == 0 && d.PerKB == 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d.PerMessage + time.Duration(bytes/1024)*d.PerKB)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// NetStats accumulates simulated network traffic.
type NetStats struct {
	Messages atomic.Int64
	Bytes    atomic.Int64
}

// Snapshot returns the current counters.
func (n *NetStats) Snapshot() (messages, bytes int64) {
	return n.Messages.Load(), n.Bytes.Load()
}

// Cluster is a set of sites plus the control site's view of the network.
type Cluster struct {
	Sites []*Site
	Net   NetStats
	// Latency simulates network transfer cost per Eval round trip. Set
	// it before issuing queries; LAN-like values are ~100–500µs per
	// message. Transfers serialize on the control site's full-duplex
	// link: a broadcast to m sites pays m request transfers on the way
	// out and m response transfers on the way back — the communication
	// cost the paper's fragmentation strategies compete on.
	Latency Delay

	outLink sync.Mutex // control site's send link
	inLink  sync.Mutex // control site's receive link

	// views publishes batch-atomic MVCC read views over every placed
	// graph: the serving layer republishes after each update
	// batch, and queries pin the latest view instead of locking the data.
	views *rdf.ViewSource
}

// Views returns the cluster's view source. The serving layer publishes a
// new view after each applied update batch; query paths acquire it to
// pin a consistent snapshot of every fragment at once.
func (c *Cluster) Views() *rdf.ViewSource { return c.views }

func (c *Cluster) sendRequest(ctx context.Context, bytes int) error {
	if c.Latency.PerMessage != 0 || c.Latency.PerKB != 0 {
		c.outLink.Lock()
		err := c.Latency.wait(ctx, bytes)
		c.outLink.Unlock()
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

func (c *Cluster) receiveResponse(ctx context.Context, bytes int) error {
	if c.Latency.PerMessage != 0 || c.Latency.PerKB != 0 {
		c.inLink.Lock()
		err := c.Latency.wait(ctx, bytes)
		c.inLink.Unlock()
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Site is one computing node: the graphs storing its fragments, by
// fragment ID — several fragments share their site's graph — and a
// bounded worker pool serializing local work, which models per-machine
// capacity for the throughput experiments.
type Site struct {
	ID    int
	frags map[int]*rdf.Graph
	mu    sync.RWMutex
	sem   chan struct{} // limits concurrent local evaluations
}

// New creates a cluster of m sites with the given per-site worker count
// (the paper's machines have 4 cores; workers models that capacity).
func New(m, workersPerSite int) *Cluster {
	if m < 1 {
		m = 1
	}
	if workersPerSite < 1 {
		workersPerSite = 1
	}
	c := &Cluster{Sites: make([]*Site, m), views: rdf.NewViewSource()}
	for i := range c.Sites {
		c.Sites[i] = &Site{
			ID:    i,
			frags: make(map[int]*rdf.Graph),
			sem:   make(chan struct{}, workersPerSite),
		}
	}
	return c
}

// Place records g as the graph storing fragment fragID at a site and
// registers it with the cluster's view source, so subsequently published
// views cover it. Fragments sharing a graph share its registration.
func (c *Cluster) Place(siteID, fragID int, g *rdf.Graph) error {
	if siteID < 0 || siteID >= len(c.Sites) {
		return fmt.Errorf("cluster: site %d out of range", siteID)
	}
	s := c.Sites[siteID]
	s.mu.Lock()
	s.frags[fragID] = g
	s.mu.Unlock()
	c.views.Register(g)
	return nil
}

// EvalRequest asks one site to evaluate a subquery over some of its
// fragments and ship the variable bindings back. The site evaluates the
// graphs storing them — its own graph, the cold graph, or both — each
// once: a match there of a fragment the request did not name is still a
// match on the data, and a duplicate of another site's is removed by the
// control site's final dedup. The subquery may be several of the query's
// subqueries merged into one because all their fragments sit at this site
// (exec.Engine.Bind): the site then answers their join itself.
type EvalRequest struct {
	SiteID  int
	FragIDs []int
	Query   *sparql.Graph
	// Keep marks the query's vertices the rest of the query reads (its
	// projection and its joins with other subqueries); nil marks them
	// all. A row still binds every variable, but the site ships one
	// witness row per binding of the kept vertices' part of the search
	// (match.Options.Keep), which the control site's projection makes
	// the same answer.
	Keep match.VertexMask
	// View is the query's pinned MVCC read view; fragments are read
	// through it so one query sees a single batch-atomic cut across every
	// site. A nil View reads each fragment's current state instead (a
	// per-graph-consistent fallback used by offline callers and by the
	// network transport, which cannot ship a view handle across
	// processes).
	View *rdf.ViewHandle
	// Vars is Query.Vars() where the caller has it at hand: the columns of
	// the batches the site ships. nil has it computed.
	Vars []string
}

// Eval performs a synchronous request/response round trip to a site: one
// request message, local evaluation under the site's worker pool, one
// response message carrying the bindings. The results of the site's
// graphs are unioned and deduplicated. Cancelling ctx aborts the
// evaluation and any simulated transfer in flight.
func (c *Cluster) Eval(ctx context.Context, req EvalRequest) (*match.Bindings, error) {
	if req.SiteID < 0 || req.SiteID >= len(c.Sites) {
		return nil, fmt.Errorf("cluster: site %d out of range", req.SiteID)
	}
	s := c.Sites[req.SiteID]
	reqBytes := estimateQueryBytes(req.Query)
	c.Net.Messages.Add(1)
	c.Net.Bytes.Add(int64(reqBytes))
	if err := c.sendRequest(ctx, reqBytes); err != nil {
		return nil, err
	}

	graphs, err := s.resolve(req)
	if err != nil {
		return nil, err
	}

	var all []match.Match
	err = s.each(ctx, graphs, func(g *rdf.Graph) error {
		all = append(all, match.Find(req.Query, req.View.Snap(g), match.Options{Keep: req.Keep})...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := match.ToBindings(req.Query, all)
	b.Dedup()
	respBytes := len(b.Rows) * 4
	c.Net.Messages.Add(1)
	c.Net.Bytes.Add(int64(respBytes))
	if err := c.receiveResponse(ctx, respBytes); err != nil {
		return nil, err
	}
	return b, nil
}

// resolve maps the requested fragments to the distinct graphs storing
// them at the site, in the order the request first names each.
func (s *Site) resolve(req EvalRequest) ([]*rdf.Graph, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	graphs := make([]*rdf.Graph, 0, len(req.FragIDs))
	for _, fid := range req.FragIDs {
		g, ok := s.frags[fid]
		if !ok {
			return nil, fmt.Errorf("cluster: fragment %d not at site %d", fid, req.SiteID)
		}
		if !slices.Contains(graphs, g) {
			graphs = append(graphs, g)
		}
	}
	return graphs, nil
}

// each runs eval over the graphs one after the other, each under one of
// the site's workers, and stops at the first error, eval's or ctx's.
func (s *Site) each(ctx context.Context, graphs []*rdf.Graph, eval func(*rdf.Graph) error) error {
	for _, g := range graphs {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		err := eval(g)
		<-s.sem
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

func estimateQueryBytes(q *sparql.Graph) int {
	return 16*len(q.Edges) + 8*len(q.Verts)
}
