package rdffrag

// The server's HTTP API, exposed as an http.Handler so the `rdffrag
// serve` subcommand, embedding applications and tests all mount the
// same surface: /query (SPARQL in, SPARQL-results out), /update
// (N-Triples batches: insert, delete, and atomic overwrite), /metrics
// and /healthz.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
	"unsafe"

	"rdffrag/internal/sparql"
)

// Handler returns the server's HTTP API. The handler is valid until the
// server is closed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Draining (SIGTERM received, Close begun) answers 503 so load
		// balancers stop routing here while in-flight work finishes.
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	format, err := resultFormat(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	query, err := readQuery(w, r)
	if err != nil {
		httpError(w, err, http.StatusBadRequest)
		return
	}
	// r.Context() is cancelled the moment the client disconnects; it
	// flows through admission, the join pipeline and every (local or
	// remote) site evaluation, so an abandoned query stops consuming
	// cluster resources end to end.
	res, err := s.answer(r.Context(), query)
	if err != nil {
		httpError(w, err, http.StatusInternalServerError)
		return
	}
	s.writeResult(w, format, res)
	res.table.Release() // written: nothing reads the answer again
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	// POST applies the batch per ?op= ("insert", the default, "delete"
	// or "overwrite"); the DELETE method is shorthand for POST
	// /update?op=delete and PUT for POST /update?op=overwrite. An
	// overwrite body is two N-Triples documents — delete-set, then
	// insert-set — separated by a line holding only "---"; both sets
	// apply as one atomic batch under one WAL sequence number. Every op
	// is that one batch with a side empty.
	op, implied := r.URL.Query().Get("op"), ""
	switch r.Method {
	case http.MethodPost:
	case http.MethodDelete:
		implied = "delete"
	case http.MethodPut:
		implied = "overwrite"
	default:
		http.Error(w, "POST (or DELETE, or PUT) an N-Triples document", http.StatusMethodNotAllowed)
		return
	}
	switch {
	case implied != "" && op != "" && op != implied:
		http.Error(w, fmt.Sprintf("op=%s contradicts the %s method", op, r.Method), http.StatusBadRequest)
		return
	case implied != "":
		op = implied
	case op == "":
		op = "insert"
	case op != "insert" && op != "delete" && op != "overwrite":
		http.Error(w, fmt.Sprintf("unknown op %q (want insert, delete or overwrite)", op), http.StatusBadRequest)
		return
	}
	ttl, err := s.requestTTL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// MaxBytesReader (not LimitReader) so an oversized batch errors
	// out whole instead of silently applying a truncated prefix.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		httpError(w, err, http.StatusBadRequest)
		return
	}
	delDoc, insDoc := "", string(body)
	switch op {
	case "delete":
		delDoc, insDoc = insDoc, ""
	case "overwrite":
		var ok bool
		if delDoc, insDoc, ok = splitOverwriteBody(insDoc); !ok {
			http.Error(w, `overwrite body needs a line holding only "---" between its delete-set and insert-set`, http.StatusBadRequest)
			return
		}
	}
	res, err := s.apply(r.Context(), delDoc, insDoc, ttl)
	if err != nil {
		httpError(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// seq is the batch's write-ahead-log sequence number: by the time
	// this response is on the wire the batch is logged (and, under the
	// "always" sync policy, fsynced). 0 on a non-durable server.
	s.countWriteErr(json.NewEncoder(w).Encode(map[string]any{
		"added":         res.Added,
		"deleted":       res.Deleted,
		"delta_triples": res.DeltaLen,
		"compactions":   res.Compactions,
		"seq":           res.Seq,
	}))
}

// httpError answers a failed /query or /update with the status of the
// error's class. Only the client's own mistakes are 400s: overload and
// shutdown are retryable 503s on both endpoints. fallback is the status
// of an error of no class: 400 for a request body that failed to read,
// 500 for anything the server failed at — e.g. a poisoned WAL rejecting
// appends — which tells the client to alert, not to "fix" a request
// that was never wrong.
func httpError(w http.ResponseWriter, err error, fallback int) {
	var tooBig *http.MaxBytesError
	status := fallback
	switch {
	case errors.As(err, &tooBig):
		// MaxBytesReader (not LimitReader): an oversized body fails
		// whole instead of a truncated prefix parsing or applying.
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrServerClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrNoUpdater), errors.Is(err, ErrRemoteSites):
		status = http.StatusNotImplemented
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is never seen.
		status = http.StatusRequestTimeout
	case errors.Is(err, sparql.ErrParse), errors.Is(err, ErrBadUpdate):
		// Typed classification: a parse failure wraps its sentinel, so
		// this does not depend on the message's spelling.
		status = http.StatusBadRequest
	}
	http.Error(w, err.Error(), status)
}

// requestTTL resolves the batch's time-to-live: the X-TTL header (a Go
// duration; "0" explicitly disables expiry) overrides the server-wide
// default.
func (s *Server) requestTTL(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-TTL")
	if h == "" {
		return s.ttl, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad X-TTL %q: want a non-negative Go duration like 30s", h)
	}
	return d, nil
}

// splitOverwriteBody splits an overwrite request body into its
// delete-document and insert-document at the first line holding only
// "---" (either side may be empty). ok is false when no separator line
// exists — the two sets must be framed explicitly.
func splitOverwriteBody(body string) (delDoc, insDoc string, ok bool) {
	for off := 0; ; {
		rest := body[off:]
		end := strings.IndexByte(rest, '\n')
		line := rest
		next := len(body)
		if end >= 0 {
			line = rest[:end]
			next = off + end + 1
		}
		if strings.TrimSpace(line) == "---" {
			return body[:off], body[next:], true
		}
		if end < 0 {
			return "", "", false
		}
		off = next
	}
}

// countWriteErr tallies a response-body write that failed after the
// status line was already sent (client gone, connection reset): the
// status can't change anymore, so the response_write_errors metric is
// the observable.
func (s *Server) countWriteErr(err error) {
	if err != nil {
		s.respWriteErrs.Add(1)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	m := s.Metrics()
	sites := make([]map[string]any, 0, len(m.Sites))
	for _, sm := range m.Sites {
		sites = append(sites, map[string]any{
			"site":          sm.Site,
			"calls":         sm.Calls,
			"attempts":      sm.Attempts,
			"retries":       sm.Retries,
			"failures":      sm.Failures,
			"fast_fails":    sm.FastFails,
			"breaker_state": sm.BreakerState,
			"breaker_opens": sm.BreakerOpens,
			"site_p99_ms":   float64(sm.P99) / float64(time.Millisecond),
		})
	}
	out := map[string]any{
		"uptime_seconds": m.Uptime.Seconds(),
		"completed":      m.Completed,
		"failed":         m.Failed,
		"rejected":       m.Rejected,
		"timed_out":      m.TimedOut,
		"queue_depth":    m.QueueDepth,
		"in_flight":      m.InFlight,
		"qps":            m.QPS,
		"p50_ms":         float64(m.P50) / float64(time.Millisecond),
		"p95_ms":         float64(m.P95) / float64(time.Millisecond),
		"p99_ms":         float64(m.P99) / float64(time.Millisecond),
		"cache_hits":     m.CacheHits,
		"cache_misses":   m.CacheMisses,
		"cache_hit_rate": m.CacheHitRate,
		// Live updates: applied batches, the new triples they
		// contributed, the global graph's current delta overlay size,
		// and how many times the delta compacted into the CSR.
		"updates":         m.Updates,
		"triples_added":   m.TriplesAdded,
		"triples_deleted": m.TriplesDeleted,
		"delta_triples":   m.DeltaLen,
		"compactions":     m.Compactions,
		// TTL expiry: sweeper passes that issued a delete batch and the
		// triples those batches removed.
		"sweep_runs":    m.SweepRuns,
		"swept_triples": m.SweptTriples,
		// Response bodies that failed to write after the status line was
		// sent (client disconnects); the status was already committed,
		// so this counter is how such failures surface.
		"response_write_errors": s.respWriteErrs.Load(),
		// MVCC health: CSR generations still alive (current +
		// retired-but-pinned) and snapshot pins held by in-flight
		// queries; generations settling back to one per graph when
		// idle means retired generations are being reclaimed.
		"generations":      m.Generations,
		"pinned_snapshots": m.PinnedSnapshots,
		// Degraded-mode completions and per-remote-site robustness
		// counters (retries, failures, breaker state, p99 per site).
		"partial_results": m.PartialResults,
		"sites":           sites,
	}
	if m.WAL != nil {
		// Durability: write-ahead-log counters, checkpoint progress and
		// how much the last startup replayed.
		out["wal_sync"] = m.WAL.SyncPolicy
		out["wal_appends"] = m.WAL.Appends
		out["wal_fsyncs"] = m.WAL.Fsyncs
		out["wal_bytes"] = m.WAL.AppendedBytes
		out["wal_live_bytes"] = m.WAL.LiveBytes
		out["wal_segments"] = m.WAL.Segments
		out["wal_last_seq"] = m.WAL.LastSeq
		out["wal_checkpoint_seq"] = m.WAL.CheckpointSeq
		out["checkpoints"] = m.WAL.Checkpoints
		out["replayed_records"] = m.WAL.ReplayedRecords
		out["wal_append_p99_ms"] = float64(m.WAL.AppendP99) / float64(time.Millisecond)
		out["wal_fsync_p99_ms"] = float64(m.WAL.FsyncP99) / float64(time.Millisecond)
	}
	s.countWriteErr(json.NewEncoder(w).Encode(out))
}

// readQuery pulls the SPARQL text from ?q= or the request body. Bodies
// are capped at 1 MiB via MaxBytesReader: an oversized query fails
// whole (the caller maps it to 413) instead of a truncated prefix
// silently parsing as a different, valid query. A body whose length the
// request states is read into one buffer of that length, which becomes
// the query string without a copy.
func readQuery(w http.ResponseWriter, r *http.Request) (string, error) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, nil
	}
	if r.Body == nil {
		return "", fmt.Errorf("missing query: pass ?q= or a request body")
	}
	const limit = 1 << 20
	body := http.MaxBytesReader(w, r.Body, limit)
	var buf []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= limit {
		buf = make([]byte, n)
		_, err = io.ReadFull(body, buf)
	} else {
		buf, err = io.ReadAll(body)
	}
	if err != nil {
		return "", err
	}
	if len(buf) == 0 {
		return "", fmt.Errorf("missing query: pass ?q= or a request body")
	}
	// Nothing writes buf again: it is the string's bytes from here on.
	return unsafe.String(unsafe.SliceData(buf), len(buf)), nil
}

// resultFormat picks the response format: ?format= (json, csv or tsv;
// anything else is the client's mistake) wins, then the first media type
// in the Accept list this server produces — parameters such as q-values
// are ignored — and JSON when neither names one.
func resultFormat(r *http.Request) (string, error) {
	switch format := r.URL.Query().Get("format"); format {
	case "json", "csv", "tsv":
		return format, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want json, csv or tsv)", format)
	}
	for _, part := range strings.Split(strings.Join(r.Header.Values("Accept"), ","), ",") {
		media, _, _ := strings.Cut(part, ";")
		switch strings.ToLower(strings.TrimSpace(media)) {
		case "application/sparql-results+json", "application/json", "*/*":
			return "json", nil
		case "text/csv":
			return "csv", nil
		case "text/tab-separated-values":
			return "tsv", nil
		}
	}
	return "json", nil
}

// writeResult renders the result as json, csv or tsv. Degraded-mode
// results are flagged in a header too, so the non-JSON formats can signal
// incompleteness. Write failures (the client disconnecting mid-body)
// land in the response_write_errors metric — the 200 status is already
// on the wire.
func (s *Server) writeResult(w http.ResponseWriter, format string, res *Result) {
	if res.Stats.Partial {
		w.Header().Set("X-Partial-Results", "true")
	}
	switch format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		s.countWriteErr(res.WriteCSV(w))
	case "tsv":
		w.Header().Set("Content-Type", "text/tab-separated-values")
		s.countWriteErr(res.WriteTSV(w))
	default:
		w.Header().Set("Content-Type", "application/sparql-results+json")
		s.countWriteErr(res.WriteJSON(w))
	}
}
