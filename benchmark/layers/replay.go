package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"rdffrag"
	"rdffrag/benchmark/spec"
	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/exec"
	"rdffrag/internal/match"
	"rdffrag/internal/plan"
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
	"rdffrag/internal/transport"
	"rdffrag/internal/wal"
)

// The serving settings `rdffrag serve` starts with.
const (
	serveWorkers   = 8
	serveQueue     = 128
	serveTimeout   = 30 * time.Second
	servePlanCache = 256
)

// sink is an http.ResponseWriter that counts and drops the body, so the
// handler's cost is timed without a recorder's buffer growing to the
// size of the answer.
type sink struct {
	h      http.Header
	status int
	n      int64
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(b []byte) (int, error) { s.n += int64(len(b)); return len(b), nil }
func newSink() *sink                        { return &sink{h: http.Header{}, status: 200} }

// countBytes counts the bytes a handler writes; it wraps the loopback
// site server to measure the wire.
type countBytes struct {
	h http.Handler
	n atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(b []byte) (int, error) {
	w.n.Add(int64(len(b)))
	return w.ResponseWriter.Write(b)
}

func (w countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countBytes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.h.ServeHTTP(countingWriter{w, &c.n}, r)
}

// world is everything the replay calls into.
type world struct {
	job spec.Job
	st  *staged       // stage-by-stage deployment: engine-level layers
	sv  *serve.Server // the serving layer over the staged engine
	// The same deployment through the public API, for the HTTP and update
	// layers.
	db  *rdffrag.DB
	dep *rdffrag.Deployment
	srv *rdffrag.Server
	// below is a second server over the public deployment, with a plan
	// cache of its own: the call below the HTTP layer must find the cache
	// in the state the handler found it in, not warmed by the handler's
	// call a moment earlier.
	below *rdffrag.Server
	dur   *rdffrag.Durable // nil unless the job is durable
	h     http.Handler

	remotes map[int]*transport.SiteClient // staged engine's site clients (networked)
	wire    *countBytes
	site    *transport.SiteServer
	log     *wal.Log // standalone log for the append and fsync costs

	closers []func()
}

func (w *world) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
}

func run(job spec.Job) (spec.Ledger, error) {
	led := spec.Ledger{Metrics: map[string]spec.Metric{}, Shares: map[string]float64{}}
	design, err := readDesign(job.DesignRQ)
	if err != nil {
		return led, err
	}
	st, err := buildStaged(job.DataPath, design, job.Strategy)
	if err != nil {
		return led, err
	}
	w := &world{job: job, st: st}
	defer w.close()
	bootstrapS, err := w.deployPublic(design)
	if err != nil {
		return led, err
	}

	ctx := context.Background()
	// Four passes over the same operations: a warm-up (fills the plan
	// caches the way the untimed warm-up of the end-to-end run does, so
	// hits and misses fall where they fall there), then the traced pass
	// between two passes with spans disabled. The mean of those two is
	// the untraced reference for the overhead and the closure.
	pass := func(tr *tracer, book *ledger) (totals, time.Duration, error) {
		start := time.Now()
		t, err := w.replay(ctx, tr, book)
		return t, time.Since(start), err
	}
	if _, _, err := pass(&tracer{}, newLedger(job.Networked)); err != nil {
		return led, fmt.Errorf("warm-up replay: %w", err)
	}
	plainA, wallA, err := pass(&tracer{}, newLedger(job.Networked))
	if err != nil {
		return led, err
	}
	tr := &tracer{enabled: true, t0: time.Now()}
	book := newLedger(job.Networked)
	traced, tracedWall, err := pass(tr, book)
	if err != nil {
		return led, err
	}
	plainB, wallB, err := pass(&tracer{}, newLedger(job.Networked))
	if err != nil {
		return led, err
	}
	plainWall := (wallA + wallB) / 2
	plainEndToEnd := (plainA.endToEnd + plainB.endToEnd) / 2
	if err := tr.write(job.TracePath); err != nil {
		return led, err
	}

	m := func(name string, v float64, unit string) { led.Metrics[name] = spec.Metric{Value: v, Unit: unit} }
	for name, s := range st.seconds {
		m(name, s, "s")
	}
	for name, c := range st.counts {
		m(name, c, "count")
	}
	for name, r := range st.ratios {
		m(name, r, "ratio")
	}
	m("durable.bootstrap_s", bootstrapS, "s")
	nq, nu := len(job.Queries), len(job.Updates)
	selfTimes, overlap := book.selfTimes()
	self := func(layer string, n int) float64 { return us(selfTimes[layer], n) }
	m("http.self_us", self("http", nq+nu), "us")
	m("sparql.parse_us", self("sparql", nq), "us")
	m("serve.admit_us", self("serve", nq), "us")
	m("decompose.decompose_us", us(traced.decompose, nq), "us")
	m("plan.optimize_us", us(traced.optimize, nq), "us")
	m("exec.self_us", self("exec", nq), "us")
	m("cluster.eval_us", self("cluster", nq), "us")
	m("match.find_us", self("match", nq), "us")
	m("cluster.join_us", self("cluster.join", nq), "us")
	perQ := func(v int64) float64 { return float64(v) / float64(max(nq, 1)) }
	m("exec.subqueries_per_query", perQ(traced.subqueries), "count")
	m("exec.sites_touched_per_query", perQ(traced.sites), "count")
	m("exec.intermediate_rows_per_query", perQ(traced.intermediate), "count")
	m("match.intermediate_rows_per_result_row", float64(traced.intermediate)/float64(max(traced.resultRows, 1)), "ratio")
	m("cluster.net_msgs_per_query", perQ(traced.netMsgs), "count")
	m("cluster.net_bytes_per_query", perQ(traced.netBytes), "B")
	m("rdffrag.decode_us", self("rdffrag", nq), "us")
	m("results.write_json_us", self("results", nq), "us")
	m("results.bytes_per_query", perQ(traced.resultBytes), "B")
	m("transport.roundtrip_us", self("transport", nq), "us")
	m("transport.wire_bytes_per_row", float64(traced.wireBytes)/float64(max(traced.wireRows, 1)), "B")
	m("update.apply_us", self("update", nu), "us")
	m("wal.append_us", self("wal.append", nu), "us")
	m("wal.sync_us", self("wal.sync", nu), "us")
	m("rdf.add_us", us(selfTimes["rdf"], int(max(traced.addedTriples, 1))), "us")
	compactMS, checkpointMS, checkpointBytes := w.background()
	m("rdf.compact_ms", compactMS, "ms")
	m("durable.checkpoint_ms", checkpointMS, "ms")
	m("durable.checkpoint_bytes", checkpointBytes, "B")
	m("trace.overhead_ratio", float64(tracedWall)/float64(plainWall), "ratio")
	var total time.Duration
	for _, d := range selfTimes {
		total += d
	}
	m("ledger.closure", float64(total)/float64(plainEndToEnd), "ratio")
	m("ledger.overlap_ratio", float64(overlap)/float64(total), "ratio")
	for layer, d := range selfTimes {
		led.Shares[layer] = float64(d) / float64(total)
	}
	m("ledger.planning_share", led.Shares["sparql"]+led.Shares["decompose"]+led.Shares["plan"], "ratio")
	m("ledger.eval_results_share", led.Shares["cluster"]+led.Shares["match"]+led.Shares["cluster.join"]+led.Shares["rdffrag"]+led.Shares["results"], "ratio")
	return led, nil
}

// deployPublic builds the deployment through the public API and starts
// its server, wiring the loopback transport and the durable log when the
// job asks for them. It returns how long the durable bootstrap took.
func (w *world) deployPublic(design []string) (bootstrapS float64, err error) {
	job := w.job
	w.db = rdffrag.Open(rdffrag.Config{Strategy: rdffrag.Strategy(job.Strategy)})
	f, err := os.Open(job.DataPath)
	if err != nil {
		return 0, err
	}
	_, err = w.db.LoadNTriples(f)
	f.Close()
	if err != nil {
		return 0, err
	}
	dep, err := w.db.Deploy(design)
	if err != nil {
		return 0, err
	}
	w.dep = dep
	cfg := rdffrag.ServerConfig{Workers: serveWorkers, QueueDepth: serveQueue, Timeout: serveTimeout, PlanCacheSize: servePlanCache}
	if job.Durable {
		dir := filepath.Join(job.TmpDir, "layers-data")
		w.dur, err = rdffrag.OpenDurable(rdffrag.DurabilityConfig{Dir: dir, Sync: "always", CheckpointBytes: job.CheckpointBytes})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := w.dur.Bootstrap(dep); err != nil {
			return 0, err
		}
		bootstrapS = time.Since(start).Seconds()
		cfg.Durable = w.dur
		w.log, err = wal.Open(wal.Options{Dir: filepath.Join(job.TmpDir, "layers-wal"), Sync: wal.SyncNone})
		if err != nil {
			return 0, err
		}
		w.closers = append(w.closers, func() { w.log.Close() })
	}
	if job.Networked {
		// The public deployment's sites and the staged engine's sites
		// each sit behind their own loopback site server.
		pub := httptest.NewServer(dep.SiteHandler(rdffrag.SiteConfig{}))
		w.closers = append(w.closers, pub.Close)
		cfg.Remote.Sites = map[int]string{}
		w.site = transport.NewSiteServer(transport.ServerConfig{Cluster: w.st.engine.Cluster, Dict: w.st.graph.Dict})
		w.wire = &countBytes{h: w.site}
		stg := httptest.NewServer(w.wire)
		w.closers = append(w.closers, stg.Close)
		w.remotes = map[int]*transport.SiteClient{}
		w.st.engine.Remotes = map[int]cluster.SiteEval{}
		for site := 0; site < defaultSites; site++ {
			cfg.Remote.Sites[site] = pub.URL
			c := transport.NewSiteClient(transport.ClientConfig{BaseURL: stg.URL, Site: site, Dict: w.st.graph.Dict})
			w.remotes[site], w.st.engine.Remotes[site] = c, c
		}
	}
	w.srv = dep.StartServer(cfg)
	w.closers = append(w.closers, w.srv.Close)
	w.h = w.srv.Handler()
	cfg.Durable = nil
	w.below = dep.StartServer(cfg)
	w.closers = append(w.closers, w.below.Close)
	w.sv = serve.New(w.st.engine, serve.Config{Workers: serveWorkers, QueueDepth: serveQueue, Timeout: serveTimeout, PlanCacheSize: servePlanCache})
	w.closers = append(w.closers, w.sv.Close)
	return bootstrapS, nil
}

// totals is what one replay pass observed besides the ledger.
type totals struct {
	endToEnd                          time.Duration // Σ handler time over all operations
	decompose, optimize               time.Duration
	subqueries, sites, intermediate   int64
	resultRows, resultBytes           int64
	netMsgs, netBytes                 int64
	wireBytes, wireRows, addedTriples int64
}

// replay runs the job's operations once, updates interleaved with
// queries, every level of every operation, booking the layers' self
// times.
func (w *world) replay(ctx context.Context, tr *tracer, book *ledger) (totals, error) {
	var t totals
	nq, nu := len(w.job.Queries), len(w.job.Updates)
	for i := 0; i < max(nq, nu); i++ {
		if i < nu {
			if err := w.update(ctx, tr, book, &t, nq+i, w.job.Updates[i]); err != nil {
				return t, fmt.Errorf("update %d: %w", i, err)
			}
		}
		if i < nq {
			if err := w.query(ctx, tr, book, &t, i, w.job.Queries[i]); err != nil {
				return t, fmt.Errorf("query %d (%s): %w", i, w.job.Queries[i].Template, err)
			}
		}
	}
	return t, nil
}

// query executes one query once per level of the call tree, each level
// by its own call, and books the layers' self times.
func (w *world) query(ctx context.Context, tr *tracer, book *ledger, t *totals, op int, q spec.Query) error {
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	qs, e := sparql.NewParser(w.st.graph.Dict).Parse(q.Text)
	if e != nil {
		return e
	}
	// Touch the query's data on both deployments first, below the plan
	// caches: whichever level ran first would otherwise pay the cache
	// misses for the levels after it, and its layer would be charged
	// with them.
	if _, e := w.dep.Query(q.Text); e != nil {
		return e
	}
	if _, _, e := w.st.engine.Query(qs); e != nil {
		return e
	}

	// HTTP handler: the whole in-process path.
	out := newSink()
	root, dH := tr.timed("http.query", op, -1, func() {
		w.h.ServeHTTP(out, httptest.NewRequest("POST", "/query", strings.NewReader(q.Text)))
	})
	if out.status != 200 {
		return fmt.Errorf("handler answered %d", out.status)
	}
	t.endToEnd += dH

	// Parse, then the server below the HTTP layer, then serialisation.
	var qd *sparql.Graph
	_, dP := tr.timed("sparql.parse", op, root, func() {
		var e error
		qd, e = sparql.NewParser(w.db.Graph().Dict).Parse(q.Text)
		fail(e)
	})
	if err != nil {
		return err
	}
	var res *rdffrag.Result
	idQP, dQP := tr.timed("rdffrag.query_parsed", op, root, func() {
		var e error
		res, e = w.below.QueryParsed(ctx, qd)
		fail(e)
	})
	if err != nil {
		return err
	}
	body := newSink()
	_, dWJ := tr.timed("results.write_json", op, root, func() { fail(res.WriteJSON(body)) })
	t.resultRows += int64(len(res.Rows))
	t.resultBytes += body.n

	// The serving layer over the staged engine: admission, plan cache,
	// execution.
	var resp *serve.Response
	idSV, dSV := tr.timed("serve.query", op, idQP, func() {
		var e error
		resp, e = w.sv.Query(ctx, qs)
		fail(e)
	})
	if err != nil {
		return err
	}
	var dcp *decompose.Decomposition
	var pl *plan.Plan
	_, dD := tr.timed("decompose.decompose", op, idSV, func() {
		var e error
		dcp, e = w.st.dec.Decompose(qs)
		fail(e)
	})
	if err != nil {
		return err
	}
	_, dO := tr.timed("plan.optimize", op, idSV, func() {
		var e error
		pl, e = plan.Optimize(dcp)
		fail(e)
	})
	if err != nil {
		return err
	}
	t.decompose, t.optimize = t.decompose+dD, t.optimize+dO
	if resp.CacheHit {
		// The serving layer skipped planning, so planning is no part of
		// this operation's path.
		dD, dO = 0, 0
	}

	// Execution of the prepared plan, then its parts by their own calls.
	msgs0, bytes0 := w.st.engine.Cluster.Net.Snapshot()
	var stats *exec.QueryStats
	idX, dX := tr.timed("exec.query_prepared", op, idSV, func() {
		var e error
		_, stats, e = w.st.engine.QueryPrepared(ctx, qs, &exec.Prepared{Dcp: dcp, Plan: pl})
		fail(e)
	})
	if err != nil {
		return err
	}
	msgs1, bytes1 := w.st.engine.Cluster.Net.Snapshot()
	t.netMsgs, t.netBytes = t.netMsgs+msgs1-msgs0, t.netBytes+bytes1-bytes0
	t.subqueries += int64(stats.Subqueries)
	t.sites += int64(stats.SitesTouched)
	t.intermediate += int64(stats.IntermediateRows)

	var dEV, dM, dNet time.Duration
	tables := make([]*match.Bindings, len(dcp.Subqueries))
	for i, sq := range dcp.Subqueries {
		tables[i] = &match.Bindings{Vars: sq.Graph.Vars()}
		for site, frags := range w.st.route(sq) {
			ids := make([]int, len(frags))
			for j, f := range frags {
				ids[j] = f.ID
			}
			req := cluster.EvalRequest{SiteID: site, FragIDs: ids, Query: sq.Graph}
			parent := idX
			if rc := w.remotes[site]; rc != nil {
				var idNet int
				var d time.Duration
				idNet, d = tr.timed("transport.eval_stream", op, idX, func() {
					fail(rc.EvalStream(ctx, req, 0, func(*match.Bindings) error { return nil }))
				})
				dNet += d
				parent = idNet
			}
			idEV, d := tr.timed("cluster.eval", op, parent, func() {
				b, e := w.st.engine.Cluster.Eval(ctx, req)
				fail(e)
				if b != nil {
					tables[i].Rows = append(tables[i].Rows, b.Rows...)
				}
			})
			dEV += d
			for _, f := range frags {
				snap := f.Graph.Snapshot()
				_, d := tr.timed("match.find_batches", op, idEV, func() {
					match.FindBatches(sq.Graph, snap, match.Options{}, cluster.DefaultBatchSize, func([]match.Match) bool { return true })
				})
				snap.Close()
				dM += d
			}
		}
		tables[i].Dedup()
	}
	if err != nil {
		return err
	}
	_, dJ := tr.timed("cluster.join", op, idX, func() {
		cur := tables[pl.Order[0]]
		for _, idx := range pl.Order[1:] {
			cur = cluster.HashJoin(cur, tables[idx])
		}
	})
	if w.site != nil {
		t.wireBytes, t.wireRows = w.wire.n.Load(), int64(w.site.Metrics().Rows)
	}

	book.add("http.query", dH)
	book.add("sparql.parse", dP)
	book.add("rdffrag.query_parsed", dQP)
	book.add("results.write_json", dWJ)
	book.add("serve.query", dSV)
	book.add("decompose.decompose", dD)
	book.add("plan.optimize", dO)
	book.add("exec.query_prepared", dX)
	book.add("transport.eval_stream", dNet)
	book.add("cluster.eval", dEV)
	book.add("match.find_batches", dM)
	book.add("cluster.join", dJ)
	return nil
}

// update executes one update batch once per level, each level on its own
// copy of the keys (a batch applied twice does different work the second
// time).
func (w *world) update(ctx context.Context, tr *tracer, book *ledger, t *totals, op int, u spec.Update) error {
	level := func(tag string) string { return strings.ReplaceAll(u.Body, "<bench:s", "<bench:"+tag+"-s") }
	out := newSink()
	root, dH := tr.timed("http.update", op, -1, func() {
		w.h.ServeHTTP(out, httptest.NewRequest(u.Method, "/update", strings.NewReader(level("h"))))
	})
	if out.status != 200 {
		return fmt.Errorf("handler answered %d", out.status)
	}
	t.endToEnd += dH
	var err error
	body := level("u")
	del, ins, overwrite := strings.Cut(body, "---\n")
	idU, dU := tr.timed("update.apply", op, root, func() {
		switch {
		case u.Method == "DELETE":
			_, err = w.srv.Delete(ctx, body)
		case overwrite:
			_, err = w.srv.Overwrite(ctx, del, ins, 0)
		default:
			_, err = w.srv.Update(ctx, body)
		}
	})
	if err != nil {
		return err
	}
	// The log's share, on a log of its own with the same payload: append
	// without fsync, then the fsync.
	var dWA, dWS, dRA time.Duration
	if w.log != nil {
		_, dWA = tr.timed("wal.append", op, idU, func() { _, err = w.log.Append(wal.KindInsert, []byte(body)) })
		if err != nil {
			return err
		}
		_, dWS = tr.timed("wal.sync", op, idU, func() { err = w.log.Sync() })
		if err != nil {
			return err
		}
	}
	// One graph's share of the insert side: parse and append to a frozen
	// graph's delta. (The apply path does this for the global graph, the
	// hot or cold graph and every carrying fragment; the rest stays in
	// update.apply's self time.)
	if doc := level("g"); u.Method != "DELETE" {
		if overwrite {
			_, doc, _ = strings.Cut(doc, "---\n")
		}
		var n int
		_, dRA = tr.timed("rdf.add", op, idU, func() { n, err = rdf.ReadNTriples(w.st.graph, strings.NewReader(doc)) })
		if err != nil {
			return err
		}
		t.addedTriples += int64(n)
	}
	book.add("http.update", dH)
	book.add("update.apply", dU)
	book.add("wal.append", dWA)
	book.add("wal.sync", dWS)
	book.add("rdf.add", dRA)
	return nil
}

// background times the work the update path defers: compacting the
// global graph's delta into a new CSR generation, and a checkpoint.
func (w *world) background() (compactMS, checkpointMS, checkpointBytes float64) {
	if len(w.job.Updates) == 0 {
		return 0, 0, 0
	}
	start := time.Now()
	w.st.graph.Compact()
	compactMS = float64(time.Since(start)) / float64(time.Millisecond)
	if w.dur != nil {
		start = time.Now()
		if err := w.dur.Checkpoint(); err == nil {
			checkpointMS = float64(time.Since(start)) / float64(time.Millisecond)
		}
		if fi, err := os.Stat(filepath.Join(w.job.TmpDir, "layers-data", "checkpoint.snap")); err == nil {
			checkpointBytes = float64(fi.Size())
		}
	}
	return compactMS, checkpointMS, checkpointBytes
}
