// Command experiments regenerates the paper's evaluation (Section 8):
// every figure and table, printed as plain-text rows. Sizes default to a
// laptop-scale shrink of the paper's setup and can be adjusted by flags.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -exp fig9       # one experiment: fig8a fig8b fig9 fig10 fig11 fig12 table1 table2
//	                            #   ablation-selection ablation-decomposition ablation-allocation serve
//	experiments -validate       # every strategy's answers against centralized evaluation, row for row
//	experiments -dbp 30000 -wd 20000 -sites 10 -clients 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rdffrag/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: all, fig8a, fig8b, fig9, fig10, fig11, fig12, table1, table2, ablation-selection, ablation-decomposition, ablation-allocation, serve")
		dbp      = flag.Int("dbp", 12000, "DBpedia-like dataset size in triples")
		dbpQ     = flag.Int("dbpq", 1500, "DBpedia-like query log length")
		wd       = flag.Int("wd", 10000, "WatDiv-like dataset size in triples")
		wdQ      = flag.Int("wdq", 600, "WatDiv-like workload length")
		sites    = flag.Int("sites", 10, "number of simulated sites")
		workers  = flag.Int("workers", 4, "workers per site")
		clients  = flag.Int("clients", 8, "concurrent clients for throughput runs")
		sample   = flag.Float64("sample", 0.01, "workload fraction replayed by online experiments")
		seed     = flag.Uint64("seed", 20160315, "generator seed")
		validate = flag.Bool("validate", false, "cross-check every strategy against centralized evaluation instead of timing")
	)
	flag.Parse()

	suite := bench.NewSuite(bench.Config{
		DBpediaTriples: *dbp,
		DBpediaQueries: *dbpQ,
		WatDivTriples:  *wd,
		WatDivQueries:  *wdQ,
		Sites:          *sites,
		Workers:        *workers,
		Clients:        *clients,
		SampleFraction: *sample,
		Seed:           *seed,
	})

	if *validate {
		t, err := suite.Validate()
		if err != nil {
			fmt.Fprintf(os.Stderr, "validate failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		return
	}

	type runner func() (*bench.Table, error)
	byID := map[string]runner{
		"fig8a":                  suite.Fig8a,
		"fig8b":                  suite.Fig8b,
		"fig9":                   suite.Fig9,
		"fig10":                  suite.Fig10,
		"fig11":                  suite.Fig11,
		"fig12":                  suite.Fig12,
		"table1":                 suite.Table1,
		"table2":                 suite.Table2,
		"ablation-selection":     suite.AblationSelection,
		"ablation-decomposition": suite.AblationDecomposition,
		"ablation-allocation":    suite.AblationAllocation,
		"serve":                  suite.ServerThroughput,
	}

	var ids []string
	if *exp == "all" {
		ids = []string{"fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12", "table1", "table2",
			"ablation-selection", "ablation-decomposition", "ablation-allocation", "serve"}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	for _, id := range ids {
		run, ok := byID[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		t, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
	}
}
