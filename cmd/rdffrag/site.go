package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"rdffrag"
)

// siteMain runs the `rdffrag site` subcommand: a fragment-host process.
// It builds the identical deployment as the control site (same data and
// workload files, deterministic pipeline — so the dictionaries agree),
// then serves its share of the fragments over HTTP: POST /eval streams
// binding batches, GET /healthz and GET /metrics serve probes and
// counters. The control site reaches it via `rdffrag serve -site
// ID=URL`.
func siteMain(args []string) {
	fs := flag.NewFlagSet("site", flag.ExitOnError)
	var (
		dataPath = fs.String("data", "", "N-Triples data file (required; same file as the control site)")
		wlPath   = fs.String("workload", "", "workload file (required; same file as the control site)")
		strategy = fs.String("strategy", "vertical", "fragmentation strategy: vertical or horizontal")
		sites    = fs.Int("sites", 4, "number of sites (must match the control site)")
		minsup   = fs.Float64("minsup", 0.01, "pattern mining support threshold (must match the control site)")
		addr     = fs.String("addr", ":7400", "HTTP listen address (use 127.0.0.1:0 for an ephemeral port)")
		serveIDs = fs.String("serve-sites", "", "comma-separated site IDs to answer for (default: all)")

		drainTO = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: how long SIGTERM waits for in-flight evals to drain")

		chaosSeed  = fs.Int64("chaos-seed", 1, "seed for the deterministic fault injector")
		chaosDrop  = fs.Float64("chaos-drop", 0, "probability an /eval request is dropped (503)")
		chaosError = fs.Float64("chaos-error", 0, "probability an /eval request errors (500)")
		chaosCut   = fs.Float64("chaos-cut", 0, "probability a response stream is cut mid-flight")
	)
	fs.Parse(args)
	if *dataPath == "" || *wlPath == "" {
		fs.Usage()
		os.Exit(2)
	}

	var ids []int
	for _, part := range strings.Split(*serveIDs, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("bad -serve-sites entry %q: %v", part, err))
		}
		ids = append(ids, n)
	}

	dep := deploy(*dataPath, *wlPath, *strategy, *sites, *minsup)
	cfg := rdffrag.SiteConfig{Sites: ids}
	if *chaosDrop > 0 || *chaosError > 0 || *chaosCut > 0 {
		cfg.Chaos = &rdffrag.ChaosConfig{
			Seed:  *chaosSeed,
			Drop:  *chaosDrop,
			Error: *chaosError,
			Cut:   *chaosCut,
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The resolved address line is machine-readable on purpose: the
	// multi-process harness starts sites on :0 and scrapes the port.
	fmt.Printf("site listening on %s (serving sites %s)\n", ln.Addr(), siteList(ids))

	// Graceful shutdown drains the in-flight evals (streams finish or
	// their clients give up), so the control site sees clean stream
	// ends instead of torn ones when a host is decommissioned politely.
	host := dep.SiteHandler(cfg)
	serveUntilSignal(host, ln, *drainTO, host.MarkDraining, nil)
}

func siteList(ids []int) string {
	if len(ids) == 0 {
		return "all"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}
