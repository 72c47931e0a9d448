// Package transport puts the site RPC surface behind a real network: an
// HTTP fragment-host server (SiteServer, mounted by `rdffrag site`)
// answers a subquery whose constants travel as dictionary IDs with binary
// frames of ID rows (wire.go), and SiteClient implements the same
// cluster.SiteEval interface as the in-process channel path, wrapped in a
// robustness layer — bounded retries with exponential backoff and jitter
// (each one restarting the stream), a per-frame progress deadline that
// runs from the request, and a per-site circuit breaker — so the control
// site can mix local and remote sites and queries survive a lossy network
// or a stalled site. The client reads every stream to EOF so its
// connection is reused: a subquery is one round trip on a pooled
// connection, not a dial.
//
// Remote evaluations read each fragment's current state (a per-graph
// consistent snapshot), not the control site's pinned MVCC view: a
// view handle pins in-process generation pointers and cannot travel
// across processes. Single-site batch atomicity still holds; the
// cross-site batch-atomic cut is an in-process-only guarantee, which
// the serving layer preserves for all graphs it hosts locally.
package transport

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
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
	// server's request and batch handling: every fault test of the
	// networked path goes through it.
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
// binding batches in binary frames, GET /healthz is a liveness probe, GET
// /metrics reports the counters above. Batches stream as the matcher
// fills them. A retried stream restarts from scratch: each attempt reads
// the site's current state, which need not be what the torn attempt read,
// so what that attempt sent is no prefix to resume from; the control
// site's dedup absorbs what the retry repeats.
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

func (s *SiteServer) handleEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an eval request", http.StatusMethodNotAllowed)
		return
	}
	// The body is consumed before any fault rolls: net/http only watches
	// for client disconnects once the request body has been read, so a
	// straggler stall taken earlier would not notice the caller leaving.
	// It is read into the buffer the response frames are then written
	// from: the request is decoded, and nothing of it kept, before the
	// first frame.
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	in := bytes.NewBuffer((*buf)[:0])
	_, err := in.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	body := in.Bytes()
	*buf = body
	// The head is the site and the client dictionary's stamp.
	rd := wireReader{b: body}
	site, dictLen, dictFP := rd.u32(), rd.u32(), rd.u64()
	if err = cmp.Or(err, rd.err); err != nil {
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
	if len(s.cfg.Sites) > 0 && !slices.Contains(s.cfg.Sites, site) {
		http.Error(w, fmt.Sprintf("site %d not served here", site), http.StatusNotFound)
		return
	}
	// Query constants and rows travel as raw IDs, so the site serves only
	// a client whose whole dictionary is a prefix of its own: 409, which
	// the client does not retry (a mismatch never heals), and before
	// reading the query.
	if dictLen == 0 || dictLen > s.cfg.Dict.Len() || s.cfg.Dict.Fingerprint(dictLen) != dictFP {
		http.Error(w, fmt.Sprintf("site %d: dictionary mismatch: the client's %d terms are no prefix of this site's dictionary (deployments differ)", site, dictLen), http.StatusConflict)
		return
	}
	req, batch, err := rd.eval(site, dictLen)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Vars = req.Query.Vars()
	s.evals.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	// The response's Content-Type is left to net/http, which sniffs it
	// from the first frame: a header frame's length bytes include a zero,
	// so that is application/octet-stream. Touching w.Header() here would
	// cost a map entry and, at WriteHeader, a clone of the map.
	flusher, _ := w.(http.Flusher)
	// write sends a frame appended to the emptied buffer, and keeps the
	// buffer, grown to hold it, for the next.
	write := func(frame []byte) error {
		*buf = frame
		_, err := w.Write(frame)
		if flusher != nil && err == nil {
			flusher.Flush()
		}
		return err
	}
	if err := write(appendHdr((*buf)[:0], req.Vars)); err != nil {
		return
	}

	streamErr := s.cfg.Cluster.EvalStream(r.Context(), req, batch, func(b *match.Bindings) error {
		switch s.cfg.Chaos.OnBatch() {
		case cluster.FaultCut:
			return errCutInjected
		case cluster.FaultDelay:
			if err := s.cfg.Chaos.StragglerWait(r.Context(), len(b.Rows)*4); err != nil {
				return err
			}
		}
		if err := write(appendBatch((*buf)[:0], b)); err != nil {
			return err
		}
		s.batches.Add(1)
		s.rows.Add(uint64(b.Len()))
		b.Release()
		return nil
	})

	switch {
	case streamErr == nil:
		write(appendFrame((*buf)[:0], frameDone, ""))
	case errors.Is(streamErr, errCutInjected):
		// Abort the connection without a terminal frame: the client
		// must see a torn stream, not a clean close. ErrAbortHandler
		// panics are recovered silently by net/http on this goroutine.
		panic(http.ErrAbortHandler)
	case r.Context().Err() != nil:
		// Client disconnected or cancelled; nothing left to tell it.
	default:
		write(appendFrame((*buf)[:0], frameErr, streamErr.Error()))
	}
}

// frameBufs holds the buffers a site reads an /eval request into and
// writes its response frames from, one per stream, grown to the largest
// of them.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}
