package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// verdict is one metric's self-check outcome on one workload.
type verdict struct {
	Workload, Metric string
	MedianA, MedianB float64
	SpreadA, SpreadB float64 // interquartile range over the median
	SpreadAll        float64 // the same over both sets together
	Worse            float64 // how much worse B's median is than A's, as a share of A's (negative = better)
	Bound            float64 // 0 for a metric without one, which is shown but not judged
	Pass             bool
}

// compareSets applies the acceptance driver's two tests to two sets of
// runs of the same code: each set's interquartile range stays within
// the bound (set-up time excepted), and the second median is not worse
// than the first by more than the bound.
func compareSets(a, b []float64, better string, bound float64, exemptSpread bool) verdict {
	v := verdict{MedianA: median(a), MedianB: median(b), Bound: bound}
	spread := func(vs []float64) float64 {
		q1, q3 := quartiles(vs)
		if m := median(vs); m != 0 {
			return (q3 - q1) / m
		}
		return 0
	}
	v.SpreadA, v.SpreadB = spread(a), spread(b)
	v.SpreadAll = spread(append(append([]float64(nil), a...), b...))
	if v.MedianA != 0 {
		v.Worse = (v.MedianB - v.MedianA) / v.MedianA
		if better == "higher" {
			v.Worse = -v.Worse
		}
	}
	v.Pass = v.Worse <= bound && (exemptSpread || (v.SpreadA <= bound && v.SpreadB <= bound))
	return v
}

// runSelfcheck runs two interleaved sets (ABAB…) of n runs per workload
// of the current tree, every run on its own seed, and prints for every
// end-to-end metric both medians, both spreads and pass or fail against
// the metric's bound.
func runSelfcheck(ctx context.Context, p *prepared, selected []*workload, seed int64, seconds float64, n int) error {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(p.l.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var verdicts []verdict
	failed := 0
	for _, w := range selected {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			rctx, cancel := context.WithTimeout(ctx, perRunLimit)
			rep, err := runWorkload(rctx, p, w, seed+int64(i), seconds, false)
			cancel()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s run %d: %d of %d operations failed: %s", w.name, i, rep.Failed, rep.Attempted, rep.FirstError)
			}
			for name, m := range rep.EndToEnd {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			for _, name := range headlineMetrics {
				sets[i%2][name] = append(sets[i%2][name], rep.PerLayer[name].Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d (set %c, seed %d): %.0f q/s, p50 %.3f ms\n",
				w.name, i+1, 2*n, 'A'+rune(i%2), seed+int64(i), rep.PerLayer["query.per_s"].Value, rep.PerLayer["query.p50_ms"].Value)
		}
		for _, m := range bf.EndToEnd {
			v := compareSets(sets[0][m.Name], sets[1][m.Name], m.Better, m.Bound, m.Name == "setup_s")
			v.Workload, v.Metric = w.name, m.Name
			verdicts = append(verdicts, v)
			if !v.Pass {
				failed++
			}
		}
		// Unbounded headline figures: how steady the host is today.
		for _, name := range headlineMetrics {
			better := "lower"
			if name == "query.per_s" {
				better = "higher"
			}
			v := compareSets(sets[0][name], sets[1][name], better, 0, true)
			if v.MedianA == 0 && v.MedianB == 0 {
				continue // update latencies where nothing writes
			}
			v.Workload, v.Metric = w.name, name
			verdicts = append(verdicts, v)
		}
	}
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "\nworkload\tmetric\tmedian A\tmedian B\tB worse by\tIQR/median A\tIQR/median B\tboth sets\tbound\t\t")
	for _, v := range verdicts {
		bound, res := fmt.Sprintf("%.0f%%", 100*v.Bound), "pass"
		if v.Bound == 0 {
			bound, res = "-", "info"
		} else if !v.Pass {
			res = "FAIL"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%s\t%s\t\n",
			v.Workload, v.Metric, v.MedianA, v.MedianB, 100*v.Worse, 100*v.SpreadA, 100*v.SpreadB, 100*v.SpreadAll, bound, res)
	}
	tw.Flush()
	if err := os.MkdirAll(p.l.out, 0o755); err == nil {
		if b, err := json.MarshalIndent(verdicts, "", "  "); err == nil {
			os.WriteFile(filepath.Join(p.l.out, "selfcheck.json"), b, 0o644)
		}
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d metric/workload pairs outside their bounds", failed)
	}
	return nil
}
