package rdffrag

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/exec"
	"rdffrag/internal/match"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// analyticTemplates are the constant-free WatDiv templates, the ones the
// benchmark's wd-analytic workload replays: every query ships thousands of
// binding rows to the control site and joins them there.
var analyticTemplates = []string{"C1", "C2", "F1", "F3", "F5", "L5"}

// analyticQuery is one analytic template, prepared on a deployment.
type analyticQuery struct {
	name string
	q    *sparql.Graph
	prep *exec.Prepared
}

// prepareAnalytic deploys the 50 000-triple WatDiv fixture vertically and
// prepares the analytic templates on it once each.
func prepareAnalytic(t *testing.T) (*exec.Engine, []analyticQuery) {
	db, ds, workload := watdivDB(t, 50000, Config{Strategy: Vertical})
	db.graph.Freeze()
	dep, err := db.DeployParsed(workload)
	if err != nil {
		t.Fatal(err)
	}
	var queries []analyticQuery
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
		queries = append(queries, analyticQuery{tpl.Name, q, prep})
	}
	if len(queries) != len(analyticTemplates) {
		t.Fatalf("found %d of the %d analytic templates", len(queries), len(analyticTemplates))
	}
	return dep.engine, queries
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// medianOfFive calls sample once to warm up, then five times, and returns
// the median of the five.
func medianOfFive(sample func() float64) float64 {
	sample()
	got := make([]float64, 5)
	for i := range got {
		got[i] = sample()
	}
	slices.Sort(got)
	return got[len(got)/2]
}

// TestAnalyticAllocPerQuery pins, at workload scale, what the engine
// allocates per query: the six analytic templates over the 50 000-triple
// WatDiv fixture on a vertical deployment, prepared once, executed with a
// fixed worker budget, TotalAlloc over the queries, median of five rounds.
// It used to divide by QueryStats.IntermediateRows instead, the binding
// rows shipped to the control-site join: 192 B a row with a slice header
// beside every row, 67 B with a binding table one flat array, 43–47 B with
// the join adopting its batches in place, 10.8–13.2 B with every row array
// taken from match's free list and handed back, 9.7–12.5 B with each
// joined batch projected as it arrives (ceiling 13 plus 10 %). Merging
// co-located subqueries and cutting each search once the variables the
// query reads are bound ship fewer rows by design — F3 2 270 instead of
// 3 409, F5 5 140 instead of 17 155 — so bytes per row rose to 16.4 B
// while bytes per query fell from 73.8 KB to 48.7–50.0 KB (48.8–48.9
// under the race detector), and the guard counts bytes per query since,
// ceiling 50 plus 10 %. With the execution pooled and the deadline on
// the plan it measures 46.0 KB (46.4–46.5 under the race detector), and
// the ceiling is that plus 10 %. Row data copied once more than needed,
// a header per row, a key materialized per row or an array not handed
// back each put it back over.
func TestAnalyticAllocPerQuery(t *testing.T) {
	engine, queries := prepareAnalytic(t)
	median := medianOfFive(func() float64 {
		rows := 0
		bytes := allocated(func() {
			for _, p := range queries {
				got, stats, err := engine.QueryPrepared(context.Background(), p.q, p.prep)
				if err != nil || got.Vars == nil {
					t.Fatalf("QueryPrepared: %v", err)
				}
				rows += stats.IntermediateRows
			}
		})
		if rows < 10000 {
			t.Fatalf("the six templates shipped %d rows; want a workload-scale run", rows)
		}
		return float64(bytes) / float64(len(queries)) / 1024
	})
	t.Logf("%.1f KB allocated per query", median)
	ceiling := analyticAllocKBPerQuery * 1.1
	if raceOn {
		ceiling = analyticAllocKBPerQueryRace * 1.1
	}
	if median > ceiling {
		t.Errorf("the engine allocates %.1f KB per query, want <= %.1f", median, ceiling)
	}
}

// What TestAnalyticAllocPerQuery measured when the ceiling was set: the
// highest of its runs, without and with the race detector.
const (
	analyticAllocKBPerQuery     = 46.0
	analyticAllocKBPerQueryRace = 46.5
)

// TestAnalyticF5AllocPerQuery pins what one F5 query allocates besides
// the answer it returns: F5 is the analytic template whose control-site
// join emits the most rows (12 908 five-column rows on this fixture,
// for 2 990 distinct answers). It runs on the deployment and worker
// budget of TestAnalyticAllocPerQuery, four queries a round,
// median of five rounds, TotalAlloc around each query less its answer's
// row array. The caller keeps every answer, so that array never returns
// to match's free list and each query takes it afresh, whatever consume
// does with its input. While the control site kept every joined
// batch until the stream ended and only then projected them, the batches
// overflowed the free list and each query allocated them afresh:
// 67–112 KB (79–150 under the race detector). With each batch projected
// as it arrives and handed back at once it measured 43–51 KB (41–46), and
// the ceiling was 48 plus 25 %. With F5's three co-located subqueries
// merged into one match at their site, cut once ?u and ?p are bound, no
// join runs and 5 140 rows are shipped instead of 17 155: it measured
// 3.9 KB (4.0–4.2), and the ceiling was 4 plus 25 %. With the execution
// pooled, FindBindings' batch headers reused and the bind sharing the
// query's arrays, it measures 0.70 KB (1.2–1.3 under the race detector),
// and the ceiling is the highest measured plus 25 %. The aggregate test
// above barely moves with a regression of F5's alone, so it cannot catch
// one.
func TestAnalyticF5AllocPerQuery(t *testing.T) {
	engine, queries := prepareAnalytic(t)
	f5 := queries[slices.IndexFunc(queries, func(p analyticQuery) bool { return p.name == "F5" })]
	const perRound = 4
	median := medianOfFive(func() float64 {
		var bytes float64
		for range perRound {
			var got *match.Bindings
			all := allocated(func() {
				var err error
				if got, _, err = engine.QueryPrepared(context.Background(), f5.q, f5.prep); err != nil {
					t.Fatalf("F5: %v", err)
				}
			})
			bytes += float64(all) - float64(4*cap(got.Rows))
		}
		return bytes / perRound / 1024
	})
	t.Logf("%.2f KB allocated per F5 query besides its answer", median)
	ceiling := f5AllocKBPerQuery * 1.25
	if raceOn {
		ceiling = f5AllocKBPerQueryRace * 1.25
	}
	if median > ceiling {
		t.Errorf("an F5 query allocates %.2f KB besides its answer, want <= %.2f", median, ceiling)
	}
}

// What TestAnalyticF5AllocPerQuery measured when the ceiling was set: the
// highest of its runs, without and with the race detector.
const (
	f5AllocKBPerQuery     = 0.70
	f5AllocKBPerQueryRace = 1.3
)

// serveTimeout is `rdffrag serve`'s default -timeout: the handler guards
// run at it, so they count what a query's deadline costs.
const serveTimeout = 30 * time.Second

// servedRequest builds a POST of query to target under ctx, which the
// caller makes cancellable, as net/http's per-connection context is: a
// served process derives whatever it derives per query from such a
// parent, never from context.Background().
func servedRequest(ctx context.Context, target, query string) *http.Request {
	return httptest.NewRequest("POST", target, strings.NewReader(query)).WithContext(ctx)
}

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
// batches and storing a side only while the other input is open, 284–304
// KB (308–314 under the race detector), and the ceiling was 300 plus
// 10 %. With row arrays recycled through match's free list — the answer's
// too, once /query has written it — it measured 46–52 KB (65–70 under the
// race detector, which `make cover` runs), and the ceiling was 66 plus
// 10 %. With co-located subqueries merged and each search cut once the
// variables the query reads are bound, it measured 14.8–15.1 KB
// (21.9–29.0 under the race detector), and the ceiling was 29 plus 10 %.
// With the parser pulling one token at a time and the query body read
// into one exact buffer, it measured 11.8–13.2 KB, and the ceiling was 12
// plus 10 %. With each query run on the admitting goroutine, without a
// worker hop, channels or routing maps, it measured 10.8 KB, and the
// ceiling was that plus 10 %. Those figures counted the test's own
// requests, about 5 KB each, built inside the measured window; built
// before it, as TestSelectiveHandlerAlloc builds them, the handler alone
// measured 5.7 KB (12.6–21.5 under the race detector). Run since at
// `rdffrag serve`'s default timeout under a cancellable request context,
// as a served process runs it, the handler measured 6.0 KB while each
// query derived a context with a timer for its deadline; with the
// deadline carried on the plan, the execution pooled and a subquery that
// is the whole query sharing its arrays, it measures 3.0 KB, and the
// ceiling is that plus 10 %. Under the race detector, whose sync.Pool
// drops what is put back at random, the median of a run spreads over
// 10.0–16.8 KB; there the ceiling is the highest measured plus 10 %.
func TestQueryHandlerAlloc(t *testing.T) {
	db, _, workload := watdivDB(t, 50000, Config{Strategy: Vertical})
	dep, err := db.DeployParsed(workload)
	if err != nil {
		t.Fatal(err)
	}
	// One worker: what is allocated must not depend on the host's cores.
	srv := dep.StartServer(ServerConfig{Workers: 1, Timeout: serveTimeout})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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
	formats := []string{"json", "csv", "tsv"}
	reqs := make([]*http.Request, 0, len(formats)*len(queries))
	median := medianOfFive(func() float64 {
		reqs = reqs[:0]
		for _, format := range formats { // a request of its own each round
			for _, q := range queries {
				reqs = append(reqs, servedRequest(ctx, "/query?format="+format, q))
			}
		}
		return float64(allocated(func() {
			for _, r := range reqs {
				resp.status = http.StatusOK
				h.ServeHTTP(resp, r)
				if resp.status != http.StatusOK {
					t.Fatalf("%s answered %d", r.URL, resp.status)
				}
			}
		})) / float64(len(reqs)) / 1024
	})
	t.Logf("%.1f KB allocated per query through /query", median)
	ceiling := handlerAllocKBPerQuery * 1.1
	if raceOn {
		ceiling = handlerAllocKBPerQueryRace * 1.1
	}
	if median > ceiling {
		t.Errorf("/query allocates %.1f KB per query, want <= %.1f", median, ceiling)
	}
}

// What TestQueryHandlerAlloc measured when the ceiling was set: the
// median, and the highest under the race detector.
const (
	handlerAllocKBPerQuery     = 3.0
	handlerAllocKBPerQueryRace = 16.8
)

// selectiveTemplates are the constant-anchored WatDiv templates the
// benchmark's wd-selective workload replays: nearly every instance is one
// subquery at one site, with an answer of a few rows.
var selectiveTemplates = []string{"L1", "L3", "L4", "S1", "S3", "S4", "S5", "S6", "F2", "F4"}

// TestSelectiveHandlerAlloc pins what /query allocates per selective
// answer: ten instances of each selective template over the 50 000-triple
// WatDiv fixture on a horizontal deployment, served through
// Server.Handler() as JSON into a response that discards the body, one
// execution slot and a sequential matcher, at `rdffrag serve`'s default
// timeout under a cancellable request context, TotalAlloc per query
// around the handler alone, median of five rounds. Here the fixed cost of
// running a query is much of what it allocates: while a query went from
// the caller's goroutine to a serve worker and back over a request
// channel, under a cancellable context of its own, with a producer
// goroutine and channel per subquery, a goroutine per site and maps to
// route it and tally its sites, it measured 4.36 KB. Run on the admitting
// goroutine, it measured 3.18 KB without a timeout and 3.46 KB with one,
// whose context, timer and Done channel each query took. With the
// deadline carried on the plan, the execution and the batch headers
// pooled, the search, its batcher and projector on the stack, the
// subquery that is the whole query sharing its arrays and /query's URL
// parsed once, it measures 1.71 KB, and the ceiling is that plus 10 %.
// Under the race detector, whose sync.Pool drops what is put back at
// random, the median of a run spreads over 10.7–14.3 KB (11.8–15.8
// before); there the ceiling is the highest measured plus 10 %.
func TestSelectiveHandlerAlloc(t *testing.T) {
	db, ds, workload := watdivDB(t, 50000, Config{Strategy: Horizontal})
	dep, err := db.DeployParsed(workload)
	if err != nil {
		t.Fatal(err)
	}
	srv := dep.StartServer(ServerConfig{Workers: 1, Timeout: serveTimeout})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := srv.Handler()
	var queries []string
	for seed := uint64(1); seed <= 10; seed++ {
		qs, names, err := ds.BenchmarkQueries(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if slices.Contains(selectiveTemplates, names[i]) {
				queries = append(queries, "SELECT ?"+strings.Join(q.Select, " ?")+" WHERE { "+q.StringWithDict(ds.Graph.Dict)+" }")
			}
		}
	}
	if len(queries) != 10*len(selectiveTemplates) {
		t.Fatalf("found %d instances of the %d selective templates", len(queries), len(selectiveTemplates))
	}
	resp := &discardResponse{header: http.Header{}}
	reqs := make([]*http.Request, len(queries))
	median := medianOfFive(func() float64 {
		for i, q := range queries { // a request of its own each round
			reqs[i] = servedRequest(ctx, "/query", q)
		}
		return float64(allocated(func() {
			for i, r := range reqs {
				resp.status = http.StatusOK
				h.ServeHTTP(resp, r)
				if resp.status != http.StatusOK {
					t.Fatalf("/query answered %d for %s", resp.status, queries[i])
				}
			}
		})) / float64(len(queries)) / 1024
	})
	t.Logf("%.2f KB allocated per selective query through /query", median)
	ceiling := selectiveAllocKBPerQuery * 1.1
	if raceOn {
		ceiling = selectiveAllocKBPerQueryRace * 1.1
	}
	if median > ceiling {
		t.Errorf("/query allocates %.2f KB per selective query, want <= %.2f", median, ceiling)
	}
}

// What TestSelectiveHandlerAlloc measured when the ceiling was set: the
// median, and the highest under the race detector.
const (
	selectiveAllocKBPerQuery     = 1.71
	selectiveAllocKBPerQueryRace = 14.3
)
