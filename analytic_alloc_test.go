package rdffrag

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
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
// with a binding table one flat array, 67 B; with the join adopting its
// batches in place, and keeping a side's rows only while the other input
// is open, it measures 43–47 B (which input closes first varies from run
// to run), and the ceiling is 46 plus 10 %. Row data copied once more
// than needed, a header per row or a key materialized per row each put it
// back over.
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
const analyticAllocPerRow = 46

// discardResponse keeps a response's status and throws its body away.
type discardResponse struct {
	header http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }

// TestQueryHandlerAlloc pins what /query allocates per answer at workload
// scale: the six analytic templates over the 50 000-triple WatDiv fixture
// on a vertical deployment, served through Server.Handler() in json, csv
// and tsv into a response that discards the body, TotalAlloc per query,
// median of 5 rounds. When the handler decoded every answer into a
// []string per cell and a header per row first it was 618 KB; encoding
// straight from the engine's ID table, 431 KB; with the join adopting its
// batches and storing a side only while the other input is open it
// measures 284–304 KB (308–314 under the race detector), and the ceiling
// is 300 plus 10 %.
func TestQueryHandlerAlloc(t *testing.T) {
	db, _, workload := watdivDB(t, 50000, Config{Strategy: Vertical})
	dep, err := db.DeployParsed(workload)
	if err != nil {
		t.Fatal(err)
	}
	// One worker with a sequential matcher: what is allocated must not
	// depend on the host's cores.
	srv := dep.StartServer(ServerConfig{Workers: 1, Parallelism: -1})
	defer srv.Close()
	h := srv.Handler()
	var queries []string
	for _, tpl := range watdiv.Templates() {
		if slices.Contains(analyticTemplates, tpl.Name) {
			queries = append(queries, tpl.Text)
		}
	}
	if len(queries) != len(analyticTemplates) {
		t.Fatalf("found %d of the %d analytic templates", len(queries), len(analyticTemplates))
	}
	resp := &discardResponse{header: http.Header{}}
	run := func() (n int) {
		for _, format := range []string{"json", "csv", "tsv"} {
			for _, q := range queries {
				resp.status = http.StatusOK
				h.ServeHTTP(resp, httptest.NewRequest("POST", "/query?format="+format, strings.NewReader(q)))
				if resp.status != http.StatusOK {
					t.Fatalf("/query?format=%s answered %d", format, resp.status)
				}
				n++
			}
		}
		return n
	}
	run()
	perQuery := make([]float64, 5)
	var before, after runtime.MemStats
	for i := range perQuery {
		runtime.ReadMemStats(&before)
		n := run()
		runtime.ReadMemStats(&after)
		perQuery[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024
	}
	slices.Sort(perQuery)
	median := perQuery[len(perQuery)/2]
	t.Logf("%.1f KB allocated per query through /query", median)
	if median > handlerAllocKBPerQuery*1.1 {
		t.Errorf("/query allocates %.1f KB per query, want <= %.1f", median, handlerAllocKBPerQuery*1.1)
	}
}

// What TestQueryHandlerAlloc measured when the ceiling was set.
const handlerAllocKBPerQuery = 300
