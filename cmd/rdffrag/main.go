// Command rdffrag is the CLI front end of the library: load an N-Triples
// file and a SPARQL workload, run the offline pipeline (mine → select →
// fragment → allocate), print the deployment summary, then answer queries
// from the command line or stdin.
//
// Usage:
//
//	rdffrag -data graph.nt -workload workload.rq [-strategy vertical|horizontal]
//	        [-sites 4] [-minsup 0.01] [-query 'SELECT ...']
//	rdffrag serve -data graph.nt -workload workload.rq [-addr :8090]
//	        [-workers 8] [-queue 128] [-timeout 30s]
//	        [-site 2=http://host:7402] [-partial-results]
//	rdffrag site -data graph.nt -workload workload.rq [-addr :7400]
//	        [-serve-sites 2,3] [-chaos-drop 0.05]
//
// The workload file contains one SPARQL query per block, separated by
// lines holding only "---". Without -query, queries are read from stdin
// (one per line).
//
// The serve subcommand starts a concurrent HTTP query server over the
// deployment: POST /query (or GET /query?q=...) answers SPARQL in the
// W3C JSON/CSV/TSV result formats, GET /metrics reports QPS, latency
// percentiles, queue depth, plan-cache hit rate and per-remote-site
// robustness counters, GET /healthz is a liveness probe. Sites mapped
// with -site ID=URL evaluate in separate `rdffrag site` processes over
// HTTP, behind retries, progress deadlines and circuit breakers; the rest
// evaluate in-process.
//
// The site subcommand hosts a deployment's fragments for a remote
// control site: it rebuilds the same deployment from the same files and
// streams subquery results over POST /eval.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"rdffrag"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "site":
			siteMain(os.Args[2:])
			return
		}
	}
	var (
		dataPath = flag.String("data", "", "N-Triples data file (required)")
		wlPath   = flag.String("workload", "", "workload file: queries separated by '---' lines (required)")
		strategy = flag.String("strategy", "vertical", "fragmentation strategy: vertical or horizontal")
		sites    = flag.Int("sites", 4, "number of simulated sites")
		minsup   = flag.Float64("minsup", 0.01, "pattern mining support threshold (fraction of workload)")
		queryStr = flag.String("query", "", "single query to run (otherwise read stdin)")
		verbose  = flag.Bool("v", false, "print per-query execution stats")
		explain  = flag.Bool("explain", false, "print the execution plan instead of running queries")
	)
	flag.Parse()
	if *dataPath == "" || *wlPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	dep := deploy(*dataPath, *wlPath, *strategy, *sites, *minsup)

	run := func(q string) {
		if *explain {
			ex, err := dep.Explain(q)
			if err != nil {
				fmt.Fprintf(os.Stderr, "explain error: %v\n", err)
				return
			}
			fmt.Print(ex.String())
			return
		}
		res, err := dep.Query(q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "query error: %v\n", err)
			return
		}
		fmt.Println(strings.Join(res.Vars, "\t"))
		for _, row := range res.Rows {
			fmt.Println(strings.Join(row, "\t"))
		}
		fmt.Printf("(%d rows", len(res.Rows))
		if *verbose {
			fmt.Printf("; %d subqueries, %d sites, %d intermediate rows",
				res.Stats.Subqueries, res.Stats.SitesTouched, res.Stats.IntermediateRows)
		}
		fmt.Println(")")
	}

	if *queryStr != "" {
		run(*queryStr)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	fmt.Println("enter queries, one per line (ctrl-D to exit):")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		run(line)
	}
}

// deploy loads the data and workload files and runs the offline pipeline,
// printing progress; shared by the interactive and serve modes.
func deploy(dataPath, wlPath, strategy string, sites int, minsup float64) *rdffrag.Deployment {
	db := rdffrag.Open(rdffrag.Config{
		Strategy:   rdffrag.Strategy(strategy),
		Sites:      sites,
		MinSupport: minsup,
	})

	f, err := os.Open(dataPath)
	if err != nil {
		fatal(err)
	}
	n, err := db.LoadNTriples(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d triples\n", n)

	queries, err := readWorkload(wlPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload: %d queries\n", len(queries))

	dep, err := db.Deploy(queries)
	if err != nil {
		fatal(err)
	}
	fmt.Println(dep.Describe())
	return dep
}

func readWorkload(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var queries []string
	for _, block := range strings.Split(string(data), "\n---") {
		q := strings.TrimSpace(strings.TrimPrefix(block, "---"))
		if q != "" {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("workload file %s contains no queries", path)
	}
	return queries, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdffrag:", err)
	os.Exit(1)
}
