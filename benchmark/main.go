// Command benchmark is rdffrag's end-to-end benchmark: it builds the
// program from the checked-out tree, runs real serve and site processes,
// drives them over HTTP, checks every answer, and prints every metric
// by name and unit. See README.md.
//
//	go run -C benchmark . --workload wd-selective --seed 1 --seconds 15 --trace 0
//	go run -C benchmark . --workload all        # the four workloads, one table
//	go run -C benchmark . -selfcheck            # two interleaved sets of runs against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinFlag {
		cpu, err := strconv.Atoi(os.Args[2])
		if err != nil {
			os.Exit(2)
		}
		spinMain(cpu)
		return
	}
	var (
		name      = flag.String("workload", "all", "workload to run: wd-selective, wd-analytic, wd-networked, wd-churn or all")
		seed      = flag.Int64("seed", 1, "seed for the replayed queries and their order (the data set is fixed)")
		seconds   = flag.Float64("seconds", 15, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1 prints the per-layer metrics (one launch, plus the in-process layer ledger) instead of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of -n runs per workload and compare them with the bounds in BENCHMARK.json")
		n         = flag.Int("n", 5, "runs per set for -selfcheck")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the context; every run's deferred teardown
	// then kills and reaps its children and removes its temp directory.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := mainErr(ctx, selected, *seed, *seconds, *trace == 1, *selfcheck, *n); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		stop()
		os.Exit(1)
	}
}

// perRunLimit bounds one run of one workload, set-up and checks
// included; the acceptance driver allows 180 s.
const perRunLimit = 170 * time.Second

func mainErr(ctx context.Context, selected []*workload, seed int64, seconds float64, traced, selfcheck bool, n int) error {
	p, err := prepare(ctx, traced)
	if err != nil {
		return err
	}
	if selfcheck {
		return runSelfcheck(ctx, p, selected, seed, seconds, n)
	}
	doc := document{
		Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commitID(ctx, p.l.root),
		Seed: seed, DataSHA256: p.in.dataSHA, WorkloadSHA256: p.in.workloadSHA, Triples: p.st.n,
	}
	for _, w := range selected {
		rctx, cancel := context.WithTimeout(ctx, perRunLimit)
		rep, err := runWorkload(rctx, p, w, seed, seconds, traced)
		if err == nil && traced {
			err = addLayerLedger(rctx, p, w, seed, rep)
		}
		cancel()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.RunTimeS = time.Since(rep.startedAt).Seconds()
		doc.Runs = append(doc.Runs, rep)
	}
	if err := os.MkdirAll(p.l.out, 0o755); err != nil {
		return err
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	docPath := filepath.Join(p.l.out, "report.json")
	if err := os.WriteFile(docPath, b, 0o644); err != nil {
		return err
	}
	printTable(os.Stderr, doc, traced)
	fmt.Fprintf(os.Stderr, "full report: %s\n", docPath)

	// The last line of standard output is the result the acceptance
	// driver reads: the single workload's, or the first's under "all".
	rep := doc.Runs[0]
	metrics := rep.EndToEnd
	if traced {
		metrics = rep.PerLayer
	}
	line, _ := json.Marshal(map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics})
	fmt.Println(string(line))
	return nil
}

// document is the full JSON report of one invocation.
type document struct {
	Nproc          int       `json:"nproc"`
	GoVersion      string    `json:"go_version"`
	Commit         string    `json:"commit"`
	Seed           int64     `json:"seed"`
	DataSHA256     string    `json:"data_sha256"`
	WorkloadSHA256 string    `json:"workload_sha256"`
	Triples        int       `json:"triples"`
	Runs           []*report `json:"runs"`
}

// headlineMetrics are the per-layer metrics every table and the
// self-check show beside the end-to-end ones.
var headlineMetrics = []string{"query.per_s", "query.p50_ms", "query.p95_ms", "update.p50_ms", "update.p95_ms"}

// printTable renders the report for people: one row per metric, one
// column per workload.
func printTable(w *os.File, doc document, traced bool) {
	fmt.Fprintf(w, "\nrdffrag benchmark  commit=%s  %s  nproc=%d  seed=%d  triples=%d\n", doc.Commit, doc.GoVersion, doc.Nproc, doc.Seed, doc.Triples)
	fmt.Fprintf(w, "inputs: data sha256=%.12s…  workload sha256=%.12s…\n\n", doc.DataSHA256, doc.WorkloadSHA256)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, r := range doc.Runs {
		fmt.Fprintf(tw, "%s\t", r.Workload)
	}
	fmt.Fprintln(tw)
	// An untraced run shows its end-to-end metrics and the headline
	// figures of the per-layer list; a traced run the whole list.
	get := func(r *report, name string) metric {
		if m, ok := r.EndToEnd[name]; ok {
			return m
		}
		return r.PerLayer[name]
	}
	var names []string
	if traced {
		for k := range doc.Runs[0].PerLayer {
			names = append(names, k)
		}
	} else {
		for k := range doc.Runs[0].EndToEnd {
			names = append(names, k)
		}
		names = append(names, headlineMetrics...)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(tw, "%s\t%s\t", k, get(doc.Runs[0], k).Unit)
		for _, r := range doc.Runs {
			fmt.Fprintf(tw, "%.4g\t", get(r, k).Value)
		}
		fmt.Fprintln(tw)
	}
	for _, row := range []struct {
		label string
		get   func(*report) string
	}{
		{"ops attempted", func(r *report) string { return fmt.Sprint(r.Attempted) }},
		{"ops failed", func(r *report) string { return fmt.Sprint(r.Failed) }},
		{"query samples", func(r *report) string { return fmt.Sprint(r.Samples["query"]) }},
		{"correct", func(r *report) string { return fmt.Sprint(r.Correct) }},
		{"run time", func(r *report) string { return fmt.Sprintf("%.1fs", r.RunTimeS) }},
	} {
		fmt.Fprintf(tw, "%s\t\t", row.label)
		for _, r := range doc.Runs {
			fmt.Fprintf(tw, "%s\t", row.get(r))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, r := range doc.Runs {
		for _, warn := range r.Warnings {
			fmt.Fprintf(w, "warning: %s: %s\n", r.Workload, warn)
		}
		if r.FirstError != "" {
			fmt.Fprintf(w, "FAILED: %s: %s\n", r.Workload, r.FirstError)
			if r.failureLog != "" {
				fmt.Fprintf(w, "  children's output kept in %s\n", r.failureLog)
			}
		}
	}
}
