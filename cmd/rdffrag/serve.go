package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rdffrag"
	"rdffrag/internal/wal"
)

// serveMain runs the `rdffrag serve` subcommand: deploy (or recover from
// a durable data directory), then answer SPARQL over HTTP through the
// concurrent query server. With -site mappings, the listed sites are
// reached over the network through robust clients (retries, progress
// deadlines, circuit breakers) instead of evaluating in-process. With
// -data-dir, every update batch is written ahead to a log before it is
// acknowledged, and restart recovers checkpoint + WAL tail.
func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		dataPath = fs.String("data", "", "N-Triples data file (required unless recovering from -data-dir)")
		wlPath   = fs.String("workload", "", "workload file: queries separated by '---' lines (required unless recovering from -data-dir)")
		strategy = fs.String("strategy", "vertical", "fragmentation strategy: vertical or horizontal")
		sites    = fs.Int("sites", 4, "number of sites")
		minsup   = fs.Float64("minsup", 0.01, "pattern mining support threshold (fraction of workload)")
		addr     = fs.String("addr", ":8090", "HTTP listen address")
		workers  = fs.Int("workers", 8, "concurrent query executions")
		queue    = fs.Int("queue", 128, "admission queue depth (full queue → 503)")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-query execution deadline (0 disables)")
		ttl      = fs.Duration("ttl", 0, "default time-to-live for inserted triples: each is stamped with the deadline now+ttl, which the WAL and checkpoints keep across restarts, and the sweeper deletes it through the durable update path once that passes; the latest write of a triple sets or clears its deadline (0 = permanent; per-request X-TTL overrides)")
		sweepInt = fs.Duration("sweep-interval", time.Second, "how often the TTL sweeper checks for expired triples (negative disables)")
		profile  = fs.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")

		dataDir   = fs.String("data-dir", "", "durable data directory: WAL + checkpoints; recovers from it when it holds a checkpoint (off by default)")
		walSync   = fs.String("wal-sync", "interval", "WAL fsync policy: always (fsync per batch before the ack), interval (group commit), none")
		walFlush  = fs.Duration("wal-flush-interval", 2*time.Millisecond, "group-commit flush period for -wal-sync interval")
		walSeg    = fs.Int64("wal-segment-bytes", 64<<20, "rotate WAL segments past this size")
		ckptBytes = fs.Int64("checkpoint-bytes", 8<<20, "checkpoint once the live WAL grows past this size")
		crashProb = fs.Float64("wal-crash-prob", 0, "fault injection: probability a WAL or checkpoint fsync simulates a machine crash (torn tail + SIGKILL); testing only")
		crashSeed = fs.Int64("wal-crash-seed", 1, "seed for the WAL crash injector")
		drainTO   = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: how long SIGTERM waits for in-flight queries to drain")

		frameTO = fs.Duration("site-frame-timeout", 10*time.Second, "cut and retry a remote site call producing no frame for this long, counted from the request")
		partial = fs.Bool("partial-results", false, "skip unavailable remote sites and flag results partial instead of failing queries")
	)
	remoteSites := map[int]string{}
	fs.Func("site", "remote site mapping ID=URL, e.g. -site 2=http://10.0.0.7:7402 (repeatable; unmapped sites run in-process)", func(v string) error {
		id, url, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want ID=URL, got %q", v)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return fmt.Errorf("bad site ID %q: %v", id, err)
		}
		remoteSites[n] = strings.TrimRight(url, "/")
		return nil
	})
	fs.Parse(args)

	// A durable directory that already holds a checkpoint recovers
	// without the source files; everything else needs them.
	recovering := *dataDir != "" && rdffrag.HasCheckpoint(*dataDir)
	if !recovering && (*dataPath == "" || *wlPath == "") {
		fs.Usage()
		os.Exit(2)
	}

	var durable *rdffrag.Durable
	var dep *rdffrag.Deployment
	if *dataDir != "" {
		dcfg := rdffrag.DurabilityConfig{
			Dir:             *dataDir,
			Sync:            *walSync,
			FlushInterval:   *walFlush,
			SegmentBytes:    *walSeg,
			CheckpointBytes: *ckptBytes,
		}
		if *crashProb > 0 {
			// The crash harness's fault seam: fsyncs of the log and of a
			// checkpoint's temp file roll a simulated machine crash — a
			// random prefix of the unflushed tail persists (a torn
			// write), then the process SIGKILLs itself.
			dcfg.FS = wal.NewChaosFS(*crashSeed, *crashProb)
		}
		var err error
		durable, err = rdffrag.OpenDurable(dcfg)
		if err != nil {
			fatal(err)
		}
		if recovering {
			dep, err = durable.Recover(rdffrag.Config{})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("recovered from %s: checkpoint seq=%d, replayed=%d records, clean=%v\n",
				*dataDir, durable.CheckpointSeq(), durable.ReplayedRecords(), durable.CleanStart())
		} else {
			dep = deploy(*dataPath, *wlPath, *strategy, *sites, *minsup)
			if err := durable.Bootstrap(dep); err != nil {
				fatal(err)
			}
			fmt.Printf("bootstrapped %s: checkpoint seq=0, wal-sync=%s\n", *dataDir, *walSync)
		}
	} else {
		dep = deploy(*dataPath, *wlPath, *strategy, *sites, *minsup)
	}

	srv := dep.StartServer(rdffrag.ServerConfig{
		Workers:       *workers,
		QueueDepth:    *queue,
		Timeout:       *timeout,
		TTL:           *ttl,
		SweepInterval: *sweepInt,
		Durable:       durable,
		Remote: rdffrag.RemoteConfig{
			Sites:          remoteSites,
			FrameTimeout:   *frameTO,
			PartialResults: *partial,
		},
	})

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *profile {
		// Hot-path regressions (e.g. the matcher re-growing allocations)
		// are diagnosable in production: profile a live server with
		//   go tool pprof http://host/debug/pprof/profile
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	// Listen before printing: the resolved address line is
	// machine-readable on purpose — the crash harness starts servers on
	// :0 and scrapes the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving on %s (workers=%d queue=%d timeout=%s remote-sites=%d partial=%v durable=%v ttl=%s pprof=%v)\n",
		ln.Addr(), *workers, *queue, *timeout, len(remoteSites), *partial, durable != nil, *ttl, *profile)

	// Graceful shutdown closes the server once the listener has
	// drained — which, when durable, checkpoints, marks the directory
	// clean and fsyncs the log, so nothing is lost even under the
	// "interval" sync policy.
	serveUntilSignal(mux, ln, *drainTO, srv.MarkDraining, srv.Close)
}

// serveUntilSignal serves h on ln until SIGTERM or SIGINT, then shuts
// down gracefully: markDraining flips /healthz to 503 before the
// listener stops accepting, so a load balancer probing during the drain
// window routes away; in-flight requests drain for at most drain; then
// closeServer, when non-nil, closes what h fronts. The shutdown tests
// scrape the two lines it prints.
func serveUntilSignal(h http.Handler, ln net.Listener, drain time.Duration, markDraining, closeServer func()) {
	httpSrv := &http.Server{Handler: h}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigs
		fmt.Printf("received %s, draining (timeout %s)\n", sig, drain)
		markDraining()
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		httpSrv.Shutdown(ctx)
		cancel()
		if closeServer != nil {
			closeServer()
		}
		fmt.Println("shutdown complete")
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
}
