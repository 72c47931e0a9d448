package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload observed.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	EndToEnd   map[string]metric  `json:"end_to_end"`
	PerLayer   map[string]metric  `json:"per_layer"`
	Samples    map[string]int     `json:"samples"`
	Segments   []map[string]any   `json:"segments"`
	Templates  map[string]float64 `json:"template_p50_ms"`
	Warnings   []string           `json:"warnings,omitempty"`
	// LedgerShares is each layer's share of the in-process end-to-end
	// time (traced runs only).
	LedgerShares map[string]float64 `json:"ledger_shares,omitempty"`
	RunTimeS     float64            `json:"run_time_s"`
	SetupRuns    []float64          `json:"setup_runs_s"`
	startedAt    time.Time
	failureLog   string // where children's logs were kept, on failure
}

// prepared is what all runs of one invocation share: binaries, inputs
// and the data file read into the oracle's store.
type prepared struct {
	l     layout
	in    inputs
	st    *store
	pools entityPools
	// layersErr is why the traced runner did not build (nil if it did or
	// was not asked for).
	layersErr error
}

func prepare(ctx context.Context, withLayers bool) (*prepared, error) {
	l, err := findLayout()
	if err != nil {
		return nil, err
	}
	if err := buildBinaries(ctx, l); err != nil {
		return nil, err
	}
	var layersErr error
	if withLayers {
		layersErr = buildLayers(ctx, l)
	}
	in, err := generateInputs(ctx, l)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(in.dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := loadNT(f)
	if err != nil {
		return nil, err
	}
	pools, err := scanEntities(st)
	if err != nil {
		return nil, err
	}
	return &prepared{l: l, in: in, st: st, pools: pools, layersErr: layersErr}, nil
}

// deployment is the set of server-side processes of one launch.
type deployment struct {
	ps      *procs
	control *child
	sites   []*child
	dataDir string
}

func (d *deployment) all() []*child { return append([]*child{d.control}, d.sites...) }

// launch starts the workload's processes and returns once every one
// answers /healthz, with the time that took. Networked sites are bound
// to ports reserved beforehand so that all processes can start at once.
func launch(ctx context.Context, p *prepared, w *workload, tmp string, admin *http.Client) (*deployment, float64, error) {
	d := &deployment{ps: &procs{logDir: filepath.Join(tmp, "logs")}}
	common := []string{"-data", p.in.dataPath, "-workload", p.in.workloadPath, "-strategy", w.strategy}
	args := append([]string{"serve"}, common...)
	args = append(args, "-addr", "127.0.0.1:0", "-pprof")
	if w.churn {
		dir, err := os.MkdirTemp(tmp, "data-")
		if err != nil {
			return nil, 0, err
		}
		d.dataDir = dir
		args = append(args, "-data-dir", dir, "-wal-sync", "always", "-checkpoint-bytes", fmt.Sprint(churnCheckpointBytes))
	}
	type started struct {
		c   *child
		err error
	}
	begin := time.Now()
	var siteCh []chan started
	if w.networked {
		for i, ids := range []string{"0,1", "2,3"} {
			addr, err := reservePort()
			if err != nil {
				return nil, 0, err
			}
			for _, id := range strings.Split(ids, ",") {
				args = append(args, "-site", id+"=http://"+addr)
			}
			ch := make(chan started, 1)
			siteCh = append(siteCh, ch)
			siteArgs := append(append([]string{"site"}, common...), "-addr", addr, "-serve-sites", ids)
			go func() {
				c, err := d.ps.start(ctx, fmt.Sprintf("site%d", i), p.l.bin("rdffrag"), siteArgs...)
				ch <- started{c, err}
			}()
		}
	}
	var err error
	d.control, err = d.ps.start(ctx, "serve", p.l.bin("rdffrag"), args...)
	for _, ch := range siteCh {
		s := <-ch
		if s.err != nil && err == nil {
			err = s.err
		}
		if s.c != nil {
			d.sites = append(d.sites, s.c)
		}
	}
	if err == nil {
		for _, c := range d.all() {
			if err = waitHealthy(ctx, admin, c); err != nil {
				break
			}
		}
	}
	if err != nil {
		d.ps.stopAll(syscall.SIGKILL)
		return nil, 0, err
	}
	return d, time.Since(begin).Seconds(), nil
}

// reservePort finds a free loopback port by binding and releasing it.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// counters is a snapshot of the server-side counters read outside the
// timed phase.
type counters struct {
	control map[string]float64
	sites   map[string]float64 // the site processes' counters, summed
	mem     memStats
	cpuS    float64 // CPU seconds and page faults, summed over the processes
	faults  int64
}

func readCounters(ctx context.Context, admin *http.Client, d *deployment) (counters, error) {
	var c counters
	var err error
	if c.control, err = readMetrics(ctx, admin, d.control.addr); err != nil {
		return c, err
	}
	c.sites = map[string]float64{}
	for _, s := range d.sites {
		m, err := readMetrics(ctx, admin, s.addr)
		if err != nil {
			return c, err
		}
		for k, v := range m {
			c.sites[k] += v
		}
	}
	if c.mem, err = readMemStats(ctx, admin, d.control.addr); err != nil {
		return c, err
	}
	for _, ch := range d.all() {
		cpuS, faults, err := procUsage(ch.cmd.Process.Pid)
		if err != nil {
			return c, err
		}
		c.cpuS, c.faults = c.cpuS+cpuS, c.faults+faults
	}
	return c, nil
}

// readMetrics fetches a /metrics document and keeps its numeric fields;
// the control site's per-remote-site counters are summed under
// "sites.<name>".
func readMetrics(ctx context.Context, admin *http.Client, addr string) (map[string]float64, error) {
	body, err := httpGet(ctx, admin, "http://"+addr+"/metrics")
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		switch v := v.(type) {
		case float64:
			out[k] = v
		case []any:
			for _, e := range v {
				if m, ok := e.(map[string]any); ok {
					for kk, vv := range m {
						if f, ok := vv.(float64); ok {
							out[k+"."+kk] += f
						}
					}
				}
			}
		}
	}
	return out, nil
}

// runWorkload runs one workload once and reports. traced selects the
// per-layer run: one launch instead of five, and the in-process layer
// ledger appended.
func runWorkload(ctx context.Context, p *prepared, w *workload, seed int64, seconds float64, traced bool) (rep *report, err error) {
	rep = &report{Workload: w.name, Seed: seed, Seconds: seconds, startedAt: time.Now(),
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}, Samples: map[string]int{}, Templates: map[string]float64{}}
	tmpRoot := filepath.Join(p.l.build, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	admin := &http.Client{Timeout: opTimeout}
	defer admin.CloseIdleConnections()
	var d *deployment
	defer func() {
		if d != nil {
			d.ps.stopAll(syscall.SIGKILL)
		}
		failed := err != nil || rep.Failed > 0 || !rep.Correct
		if failed {
			keep := filepath.Join(p.l.out, fmt.Sprintf("failed-%s-seed%d", w.name, seed))
			os.RemoveAll(keep)
			if os.MkdirAll(p.l.out, 0o755) == nil && os.Rename(filepath.Join(tmp, "logs"), keep) == nil {
				rep.failureLog = keep
				if err != nil {
					err = fmt.Errorf("%w (children's output kept in %s)", err, keep)
				}
			}
		}
		os.RemoveAll(tmp)
	}()

	ops, cycleLen := w.ops(p.pools, seed)
	oracle, err := newOracleChecker(p.st, ops)
	if err != nil {
		return rep, err
	}

	// Set-up time: the median of five launches; the last one serves.
	launches := 5
	if traced {
		launches = 1
	}
	for i := 0; i < launches; i++ {
		var took float64
		if d, took, err = launch(ctx, p, w, tmp, admin); err != nil {
			return rep, err
		}
		rep.SetupRuns = append(rep.SetupRuns, took)
		if i < launches-1 {
			d.ps.stopAll(syscall.SIGTERM)
			if d.dataDir != "" {
				os.RemoveAll(d.dataDir)
			}
			d = nil
		}
	}

	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(d.control.addr)
		defer clients[i].close()
	}
	var chk checker = oracle
	var wr *writer
	var writerClient *client
	warmSeconds := 0.12 * seconds
	if w.churn {
		// The writer warms up too; its measured part is a whole number of
		// cycles filling `seconds`.
		measured := max(int(seconds*churnRate)/churnCycle, 1) * churnCycle
		wr = newWriter(writeSequence(seed, churnWarmOps+measured))
		warmSeconds = churnWarmOps / churnRate
		seconds = float64(measured) / churnRate
		chk = &churnChecker{oracle: oracle, seed: seed, w: wr}
		writerClient = newClient(d.control.addr)
		defer writerClient.close()
	}

	spin, err := startSpinners()
	if err != nil {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("running without idle spinners (%v): expect slower, noisier figures on a virtual machine", err))
	} else {
		defer spin.stop()
	}
	aluBefore, memBefore := calibrate()
	var writerDone sync.WaitGroup
	if wr != nil {
		writerDone.Add(1)
		t0 := time.Now()
		go func() { defer writerDone.Done(); wr.run(ctx, writerClient, t0) }()
	}
	warm := driveClosed(ctx, clients, ops, cycleLen, 0, w.warmCycles, warmSeconds, chk)
	if warm.firstErr != nil {
		// A wrong or failed answer before timing starts: nothing worth
		// measuring.
		writerDone.Wait()
		rep.Attempted, rep.Failed, rep.FirstError = warm.attempted, warm.failed, warm.firstErr.Error()
		return rep, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	before, err := readCounters(ctx, admin, d)
	if err != nil {
		return rep, err
	}
	selfBefore := selfCPUSeconds()
	stalls := startStallMonitor()
	ph := driveClosed(ctx, clients, ops, cycleLen, warm.nextIndex, 5, seconds, chk)
	stallMS := stalls.end()
	selfCPU := selfCPUSeconds() - selfBefore
	writerDone.Wait()
	after, err := readCounters(ctx, admin, d)
	if err != nil {
		return rep, err
	}
	// Allocation per query is the control site's TotalAlloc over the
	// measured phase. Beside the writer that figure would depend on how
	// many queries the closed loop fitted between a fixed number of
	// updates and checkpoints, that is, on the host's speed; on wd-churn
	// it is therefore taken over a short tail of reader cycles after the
	// writer has finished, with the delta overlays it left behind.
	allocBytes, allocQueries := after.mem.totalAlloc-before.mem.totalAlloc, len(ph.samples)
	if wr != nil {
		tail := driveClosed(ctx, clients, ops, cycleLen, ph.nextIndex, 5, 1, chk)
		tailMem, err := readMemStats(ctx, admin, d.control.addr)
		if err != nil {
			return rep, err
		}
		allocBytes, allocQueries = tailMem.totalAlloc-after.mem.totalAlloc, len(tail.samples)
		ph.attempted, ph.failed = ph.attempted+tail.attempted, ph.failed+tail.failed
		if ph.firstErr == nil {
			ph.firstErr = tail.firstErr
		}
	}
	aluAfter, memAfter := calibrate()
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}

	obs := observation{
		ph: ph, before: before, after: after, wr: wr,
		selfCPU: selfCPU, stallMS: stallMS,
		calib:      [4]float64{aluBefore, aluAfter, memBefore, memAfter},
		allocBytes: allocBytes, allocQueries: allocQueries,
	}
	if err := rep.fill(obs, d); err != nil {
		return rep, err
	}
	if wr != nil {
		// Last, because it kills the control site.
		recoverS, err := checkDurability(ctx, p, d, wr, seed, admin)
		rep.PerLayer["durable.recover_s"] = metric{recoverS, "s"}
		if err != nil {
			rep.Correct = false
			rep.Failed++
			if rep.FirstError == "" {
				rep.FirstError = err.Error()
			}
		}
	}
	return rep, nil
}

// observation is what the phases of one run measured, before it is
// turned into metrics.
type observation struct {
	ph            phase // the measured closed-loop phase
	before, after counters
	wr            *writer // nil unless the workload writes
	selfCPU       float64 // the harness's CPU seconds over the measured phase
	stallMS       float64
	calib         [4]float64 // ALU before, after; memory before, after
	// allocBytes were allocated by the control site while allocQueries
	// queries ran.
	allocBytes   uint64
	allocQueries int
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fill turns an observation into the report's counts and metrics.
func (rep *report) fill(o observation, d *deployment) error {
	ph, wr, before, after := o.ph, o.wr, o.before, o.after
	rep.Attempted, rep.Failed = ph.attempted, ph.failed
	firstErr := ph.firstErr
	if wr != nil {
		rep.Attempted += len(wr.ops)
		rep.Failed += wr.failed
		if firstErr == nil {
			firstErr = wr.firstErr
		}
	}
	if firstErr != nil {
		rep.FirstError = firstErr.Error()
	}
	rep.Correct = rep.Failed == 0
	if len(ph.samples) == 0 {
		return errors.New("no query completed in the measured phase")
	}
	queries := float64(len(ph.samples))

	// End-to-end metrics: the median segment.
	segs := segmentStats(ph.samples, ph.cycles, 5)
	run := medianSegment(segs)
	rep.Samples["query"] = len(ph.samples)
	rep.Samples["query_cycles"] = ph.cycles
	lo, hi := segs[0].perS, segs[0].perS
	for _, s := range segs {
		rep.Segments = append(rep.Segments, map[string]any{"n": s.n, "query_per_s": s.perS, "query_p50_ms": s.p50MS, "query_p95_ms": s.p95MS})
		lo, hi = min(lo, s.perS), max(hi, s.perS)
	}
	var rssKB int64
	for _, c := range d.all() {
		kb, err := peakRSSKB(c.cmd.Process.Pid)
		if err != nil {
			return err
		}
		rssKB += kb
	}
	e2e := rep.EndToEnd
	e2e["setup_s"] = metric{median(rep.SetupRuns), "s"}
	e2e["rss_peak_mb"] = metric{float64(rssKB) / 1024, "MB"}
	e2e["alloc_kb_per_query"] = metric{float64(o.allocBytes) / 1024 / float64(max(o.allocQueries, 1)), "KB"}

	// Per-layer metrics read from outside during this run. Throughput and
	// latency are among them, not among the end-to-end metrics, because
	// on the host this was built on their run-to-run spread exceeds the
	// widest regression bound an end-to-end metric may carry (README.md,
	// "Why throughput and latency carry no bound").
	pl := rep.PerLayer
	pl["query.per_s"] = metric{run.perS, "1/s"}
	pl["query.p50_ms"] = metric{run.p50MS, "ms"}
	pl["query.p95_ms"] = metric{run.p95MS, "ms"}
	delta := func(key string) float64 { return after.control[key] - before.control[key] }
	siteDelta := func(key string) float64 { return after.sites[key] - before.sites[key] }
	serverCPU := after.cpuS - before.cpuS
	pl["serve.plan_cache_hit_ratio"] = metric{ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses")), "ratio"}
	pl["transport.evals_per_query"] = metric{siteDelta("evals") / queries, "count"}
	pl["transport.rows_per_query"] = metric{siteDelta("rows") / queries, "count"}
	pl["transport.batches_per_query"] = metric{siteDelta("batches") / queries, "count"}
	pl["transport.retries"] = metric{delta("sites.retries"), "count"}
	pl["transport.hedges"] = metric{delta("sites.hedges"), "count"}
	pl["transport.failures"] = metric{delta("sites.failures"), "count"}
	pl["proc.cpu_ms_per_query"] = metric{1000 * serverCPU / queries, "ms"}
	pl["proc.page_faults_per_query"] = metric{float64(after.faults-before.faults) / queries, "count"}
	pl["proc.mallocs_per_query"] = metric{float64(after.mem.mallocs-before.mem.mallocs) / queries, "count"}
	pl["proc.gc_cycles"] = metric{float64(after.mem.numGC - before.mem.numGC), "count"}
	pl["proc.gc_pause_ms"] = metric{float64(gcPauseNs(before.mem, after.mem)) / 1e6, "ms"}
	pl["loadgen.cpu_share"] = metric{ratio(o.selfCPU, o.selfCPU+serverCPU), "ratio"}
	pl["loadgen.stall_ms_total"] = metric{o.stallMS, "ms"}
	pl["host.calib_alu_ms_before"] = metric{o.calib[0], "ms"}
	pl["host.calib_alu_ms_after"] = metric{o.calib[1], "ms"}
	pl["host.calib_mem_ms_before"] = metric{o.calib[2], "ms"}
	pl["host.calib_mem_ms_after"] = metric{o.calib[3], "ms"}
	pl["host.segment_spread"] = metric{ratio(hi-lo, hi), "ratio"}
	if share := pl["loadgen.cpu_share"].Value; share >= 0.4 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("load generator used %.0f%% of the CPU time; it may be the bottleneck", 100*share))
	}

	// Band boundaries: a percentile on the edge between two templates'
	// latency bands jumps from run to run.
	bands := latencyBands(ph.samples)
	m50, _ := bandMargin(bands, 50)
	m95, _ := bandMargin(bands, 95)
	pl["loadgen.band_margin_p50"] = metric{min(m50, 50), "points"}
	pl["loadgen.band_margin_p95"] = metric{min(m95, 50), "points"}
	if err := checkBands(bands, minBandMargin, 50, 95); err != nil {
		rep.Warnings = append(rep.Warnings, err.Error())
	}
	byTemplate := map[string][]float64{}
	for _, s := range ph.samples {
		byTemplate[s.template] = append(byTemplate[s.template], s.latMS)
	}
	for t, l := range byTemplate {
		rep.Templates[t] = median(l)
	}

	// Update path, checkpoints and disk (zero where nothing writes).
	var upd segmentStat
	var late95, userBytes, diskBytes float64
	if wr != nil {
		const warmCycles = churnWarmOps / churnCycle
		var measured []sample
		for _, s := range wr.samples {
			if s.cycle >= warmCycles {
				s.cycle -= warmCycles
				measured = append(measured, s)
			}
		}
		upd = medianSegment(segmentStats(measured, len(wr.ops)/churnCycle-warmCycles, 5))
		rep.Samples["update"] = len(measured)
		sort.Float64s(wr.lateMS)
		late95 = percentile(wr.lateMS, 95)
		userBytes = float64(wr.userBytes)
		diskBytes = float64(dirBytes(d.dataDir))
	}
	pl["update.p50_ms"] = metric{upd.p50MS, "ms"}
	pl["update.p95_ms"] = metric{upd.p95MS, "ms"}
	pl["loadgen.update_late_p95_ms"] = metric{late95, "ms"}
	pl["wal.fsyncs_per_update"] = metric{ratio(delta("wal_fsyncs"), delta("updates")), "count"}
	pl["wal.bytes_per_user_byte"] = metric{ratio(after.control["wal_bytes"], userBytes), "ratio"}
	pl["wal.append_p99_ms"] = metric{after.control["wal_append_p99_ms"], "ms"}
	pl["wal.fsync_p99_ms"] = metric{after.control["wal_fsync_p99_ms"], "ms"}
	pl["durable.checkpoints"] = metric{delta("checkpoints"), "count"}
	pl["rdf.compactions"] = metric{delta("compactions"), "count"}
	pl["rdf.delta_triples_final"] = metric{after.control["delta_triples"], "count"}
	pl["durable.disk_bytes_per_user_byte"] = metric{ratio(diskBytes, userBytes), "ratio"}
	pl["durable.recover_s"] = metric{0, "s"}
	return nil
}

// minBandMargin is how many percentile points a reported percentile
// must keep from the edge of its latency band.
const minBandMargin = 3

// checkDurability kills the control site, restarts it from its data
// directory alone, and checks that every key holds exactly its last
// acknowledged version. SIGKILL leaves the operating system's cache
// intact, so this covers what the process had handed to the kernel, not
// a torn fsync (make crash-soak covers that). It returns how long the
// recovery took.
func checkDurability(ctx context.Context, p *prepared, d *deployment, wr *writer, seed int64, admin *http.Client) (float64, error) {
	d.control.stop(syscall.SIGKILL, time.Second)
	begin := time.Now()
	c, err := d.ps.start(ctx, "serve-recovered", p.l.bin("rdffrag"), "serve",
		"-data-dir", d.dataDir, "-wal-sync", "always", "-addr", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("restart after kill: %w", err)
	}
	if err := waitHealthy(ctx, admin, c); err != nil {
		return 0, err
	}
	took := time.Since(begin).Seconds()
	cl := newClient(c.addr)
	defer cl.close()
	acked := int(wr.acked.Load())
	for k := 0; k < churnKeys; k++ {
		body, _, err := cl.do(ctx, "POST", "/query", pointRead(seed, k))
		if err != nil {
			return took, fmt.Errorf("after recovery: %w", err)
		}
		res, err := readResult(body, []string{"p", "r"}, true)
		if err != nil {
			return took, fmt.Errorf("after recovery: %w", err)
		}
		v, err := readVersion(seed, k, res.rowValues)
		if err != nil {
			return took, fmt.Errorf("after recovery: %w", err)
		}
		if want := versionAfter(wr.ops, k, acked); v != want {
			return took, fmt.Errorf("after recovery: key %d holds version %d, last acknowledged was %d", k, v, want)
		}
	}
	return took, nil
}
