// Package transport puts the site RPC surface behind a real network:
// an HTTP fragment-host server (SiteServer, mounted by `rdffrag site`)
// streams binding batches as NDJSON frames, and SiteClient implements
// the same cluster.SiteEval interface as the in-process channel path,
// wrapped in a robustness layer — bounded retries with exponential
// backoff and jitter (each one restarting the stream), a per-frame
// progress deadline that runs from the request, and a per-site circuit
// breaker — so the control site can mix local and remote sites and
// queries survive a lossy network or a stalled site.
//
// Remote evaluations read each fragment's current state (a per-graph
// consistent snapshot), not the control site's pinned MVCC view: a
// view handle pins in-process generation pointers and cannot travel
// across processes. Single-site batch atomicity still holds; the
// cross-site batch-atomic cut is an in-process-only guarantee, which
// the serving layer preserves for all graphs it hosts locally.
package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"rdffrag/internal/cluster"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// errCutInjected aborts a stream mid-flight for an injected cut fault.
// It travels from the batch sink back through EvalStream to the handler
// goroutine, which then kills the connection abruptly (no terminal
// frame) — the client sees exactly what a network partition looks like.
var errCutInjected = errors.New("transport: injected stream cut")

// ServerConfig configures a SiteServer.
type ServerConfig struct {
	// Cluster holds the graphs of the sites this process serves.
	Cluster *cluster.Cluster
	// Dict is the deployment dictionary queries are decoded through.
	Dict *rdf.Dict
	// Sites restricts which site IDs this server answers for; nil
	// serves every site of the cluster. A fragment-host process
	// typically serves one site; tests serve several from one process.
	Sites []int
	// Chaos, when non-nil, injects deterministic seeded faults on this
	// server's request and batch handling — the same seam the
	// channel-RPC path uses (cluster.Chaos).
	Chaos *cluster.Chaos
	// MaxBodyBytes bounds the /eval request body (default 8 MiB).
	MaxBodyBytes int64
}

// ServerMetrics is a snapshot of a site server's counters.
type ServerMetrics struct {
	// Evals counts /eval requests accepted; ActiveEvals is the
	// in-flight gauge (it draining to zero after a client disconnect
	// is the regression check for end-to-end cancellation).
	Evals       uint64
	ActiveEvals int
	// Batches and Rows count streamed result frames and the binding
	// rows they carried.
	Batches uint64
	Rows    uint64
	// ResponseWriteErrors counts response bodies that failed to write
	// after the status line was sent (client gone mid-response); the
	// status can't change anymore, so the metric is the observable.
	ResponseWriteErrors uint64
	// Chaos reports faults injected by this server's injector.
	Chaos cluster.ChaosCounts
}

// SiteServer serves a cluster's fragments over HTTP: POST /eval streams
// NDJSON binding batches, GET /healthz is a liveness probe, GET
// /metrics reports the counters above. Batches stream as the matcher's
// workers fill them, in no fixed order: a retried stream restarts from
// scratch, and the control site's dedup absorbs what it repeats.
type SiteServer struct {
	cfg ServerConfig
	mux *http.ServeMux

	evals         atomic.Uint64
	active        atomic.Int64
	batches       atomic.Uint64
	rows          atomic.Uint64
	respWriteErrs atomic.Uint64

	// draining flips once graceful shutdown begins; /healthz then
	// answers 503 so load balancers stop routing to this host while
	// in-flight evals finish.
	draining atomic.Bool
}

// NewSiteServer builds the handler; mount it on any http.Server.
func NewSiteServer(cfg ServerConfig) *SiteServer {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	s := &SiteServer{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/eval", s.handleEval)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *SiteServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// MarkDraining flips the server into draining mode: /healthz starts
// answering 503 while /eval keeps serving in-flight (and new) work.
// Call it when graceful shutdown begins, before the listener drains.
func (s *SiteServer) MarkDraining() { s.draining.Store(true) }

// Metrics snapshots the server's counters.
func (s *SiteServer) Metrics() ServerMetrics {
	return ServerMetrics{
		Evals:               s.evals.Load(),
		ActiveEvals:         int(s.active.Load()),
		Batches:             s.batches.Load(),
		Rows:                s.rows.Load(),
		ResponseWriteErrors: s.respWriteErrs.Load(),
		Chaos:               s.cfg.Chaos.Counts(),
	}
}

func (s *SiteServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{
		"evals":                 m.Evals,
		"active_evals":          m.ActiveEvals,
		"batches":               m.Batches,
		"rows":                  m.Rows,
		"response_write_errors": m.ResponseWriteErrors,
		"chaos_drops":           m.Chaos.Drops,
		"chaos_errors":          m.Chaos.Errors,
		"chaos_cuts":            m.Chaos.Cuts,
		"chaos_delays":          m.Chaos.Delays,
	}); err != nil {
		s.respWriteErrs.Add(1)
	}
}

// serves reports whether this server answers for site id.
func (s *SiteServer) serves(id int) bool {
	if len(s.cfg.Sites) == 0 {
		return true
	}
	for _, have := range s.cfg.Sites {
		if have == id {
			return true
		}
	}
	return false
}

func (s *SiteServer) handleEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an eval request", http.StatusMethodNotAllowed)
		return
	}
	// The body is consumed before any fault rolls: net/http only watches
	// for client disconnects once the request body has been read, so a
	// straggler stall taken earlier would not notice the caller leaving.
	var wire evalWire
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&wire); err != nil {
		http.Error(w, "bad eval request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Injected request faults fire before the site does any work, like
	// a message lost or mangled on the wire.
	switch s.cfg.Chaos.OnRequest() {
	case cluster.FaultDrop:
		http.Error(w, "chaos: injected drop", http.StatusServiceUnavailable)
		return
	case cluster.FaultError:
		http.Error(w, "chaos: injected error", http.StatusInternalServerError)
		return
	case cluster.FaultDelay:
		if err := s.cfg.Chaos.StragglerWait(r.Context(), 0); err != nil {
			return // client gone while stalled
		}
	}
	if !s.serves(wire.Site) {
		http.Error(w, fmt.Sprintf("site %d not served here", wire.Site), http.StatusNotFound)
		return
	}
	// Dictionary agreement check, client side first: rows travel as raw
	// IDs, so a diverged data dictionary would decode them to the wrong
	// terms. Verify the shared prefix before decodeQuery interns
	// anything (full lengths legitimately differ — each side interns
	// ad-hoc query constants the other never sees). 409 is deliberate:
	// the client treats only 5xx as retryable, and a dictionary mismatch
	// never heals by retrying.
	sLen := s.cfg.Dict.Len()
	if wire.DictLen > 0 && wire.DictLen <= sLen && s.cfg.Dict.Fingerprint(wire.DictLen) != wire.DictFP {
		http.Error(w, fmt.Sprintf("site %d: dictionary mismatch: client prefix %d does not match this site's dictionary (deployments differ)", wire.Site, wire.DictLen), http.StatusConflict)
		return
	}
	hdrLen := sLen
	if wire.DictLen > 0 && wire.DictLen < sLen {
		hdrLen = wire.DictLen
	}
	q, err := decodeQuery(wire.Query, s.cfg.Dict)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.evals.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	write := func(f *frame) error {
		if err := enc.Encode(f); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	// The header carries the server's fingerprint of the shared prefix
	// (min of both lengths) so the client can verify the other
	// direction — whichever dictionary is longer checks the shorter one.
	if err := write(&frame{K: "hdr", DictLen: hdrLen, DictFP: s.cfg.Dict.Fingerprint(hdrLen)}); err != nil {
		return
	}

	batch := wire.Batch
	if batch <= 0 {
		batch = cluster.DefaultBatchSize
	}
	req := cluster.EvalRequest{SiteID: wire.Site, FragIDs: wire.Frags, Query: q, Parallelism: wire.Parallelism}
	streamErr := s.cfg.Cluster.EvalStream(r.Context(), req, batch, func(b *match.Bindings) error {
		switch s.cfg.Chaos.OnBatch() {
		case cluster.FaultCut:
			return errCutInjected
		case cluster.FaultDelay:
			if err := s.cfg.Chaos.StragglerWait(r.Context(), len(b.Rows)*4); err != nil {
				return err
			}
		}
		if err := write(&frame{K: "b", Vars: b.Vars, Rows: rowsOf(b)}); err != nil {
			return err
		}
		s.batches.Add(1)
		s.rows.Add(uint64(b.Len()))
		b.Release()
		return nil
	})

	switch {
	case streamErr == nil:
		write(&frame{K: "done"})
	case errors.Is(streamErr, errCutInjected):
		// Abort the connection without a terminal frame: the client
		// must see a torn stream, not a clean close. ErrAbortHandler
		// panics are recovered silently by net/http on this goroutine.
		panic(http.ErrAbortHandler)
	case r.Context().Err() != nil:
		// Client disconnected or cancelled; nothing left to tell it.
	default:
		write(&frame{K: "err", Msg: streamErr.Error(), Retry: errors.Is(streamErr, cluster.ErrInjected)})
	}
}
