package rdffrag

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"rdffrag/internal/exec"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// analyticTemplates are the constant-free WatDiv templates, the ones the
// benchmark's wd-analytic workload replays: every query ships thousands of
// binding rows to the control site and joins them there.
var analyticTemplates = []string{"C1", "C2", "F1", "F3", "F5", "L5"}

// TestAnalyticAllocPerIntermediateRow pins, at workload scale, what the
// engine allocates per binding row shipped to the control-site join: the
// six analytic templates over the 50 000-triple WatDiv fixture on a
// vertical deployment, prepared once, executed with a fixed worker budget,
// TotalAlloc over QueryStats.IntermediateRows. With a slice header beside
// every row at four stations and a Go map per join side it was 192 B;
// with a binding table one flat array it measures 67 B, and the ceiling
// is that plus 10 %. Row data copied once more than needed, a header per
// row or a key materialized per row each put it back over.
func TestAnalyticAllocPerIntermediateRow(t *testing.T) {
	db, ds, workload := watdivDB(t, 50000, Config{Strategy: Vertical})
	db.graph.Freeze()
	dep, err := db.DeployParsed(workload)
	if err != nil {
		t.Fatal(err)
	}
	type prepared struct {
		q    *sparql.Graph
		prep *exec.Prepared
	}
	var queries []prepared
	for _, tpl := range watdiv.Templates() {
		if !slices.Contains(analyticTemplates, tpl.Name) {
			continue
		}
		q, err := sparql.NewParser(ds.Graph.Dict).Parse(tpl.Text)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		prep, err := dep.engine.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		prep.Parallelism = 1 // the worker budget must not depend on the host
		queries = append(queries, prepared{q, prep})
	}
	if len(queries) != len(analyticTemplates) {
		t.Fatalf("found %d of the %d analytic templates", len(queries), len(analyticTemplates))
	}
	run := func() (rows int) {
		for _, p := range queries {
			got, stats, err := dep.engine.QueryPrepared(context.Background(), p.q, p.prep)
			if err != nil || got.Vars == nil {
				t.Fatalf("QueryPrepared: %v", err)
			}
			rows += stats.IntermediateRows
		}
		return rows
	}
	run()
	perRow := make([]float64, 5)
	var before, after runtime.MemStats
	for i := range perRow {
		runtime.ReadMemStats(&before)
		rows := run()
		runtime.ReadMemStats(&after)
		if rows < 10000 {
			t.Fatalf("the six templates shipped %d rows; want a workload-scale run", rows)
		}
		perRow[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
	}
	slices.Sort(perRow)
	median := perRow[len(perRow)/2]
	t.Logf("%.1f B allocated per intermediate row", median)
	if median > analyticAllocPerRow*1.1 {
		t.Errorf("the engine allocates %.1f B per intermediate row, want <= %.1f", median, analyticAllocPerRow*1.1)
	}
}

// What the test measured when the ceiling was set.
const analyticAllocPerRow = 67
