package rdffrag

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"rdffrag/internal/model"
	"rdffrag/internal/rdf"
)

// TestWatDivTemplatesMatchModel: each of the 20 WatDiv templates,
// instantiated with constants, answers on the 50 000-triple fixture what
// the model answers, under vertical and under horizontal fragmentation.
// Under vertical fragmentation L5 and F5 decompose into subqueries whose
// fragments affinity allocation puts on one site, so they must run as one
// subquery: a merge of co-located subqueries that stopped happening would
// still answer right, and only this count would tell.
//
// The model scans every triple it is given for every partial match, which
// makes it the cost of this test: about a minute of CPU. It is given the
// triples carrying the query's predicates, which are all a pattern without
// predicate variables can match, and answers the templates in parallel
// while the fixture deploys. Under the race detector the model's map work
// takes five times as long, which would put this package near go test's
// ten-minute limit, and the model runs on one goroutine per template,
// sharing nothing: the test does not run there.
func TestWatDivTemplatesMatchModel(t *testing.T) {
	if raceOn {
		t.Skip("the model answers the analytic templates in minutes under the race detector")
	}
	vf, ds, workload := watdivDB(t, 50000, Config{Strategy: Vertical})
	queries, names, err := ds.BenchmarkQueries(1)
	if err != nil {
		t.Fatal(err)
	}
	all := slices.Clone(ds.Graph.Triples())
	want := make([]*model.Table, len(queries))
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, q := range queries {
		preds := q.Predicates()
		ts := slices.DeleteFunc(slices.Clone(all), func(tr rdf.Triple) bool { return !slices.Contains(preds, tr.P) })
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			want[i] = model.Answer(q, ts)
			<-slots
		}()
	}

	hf := &DB{cfg: Config{Strategy: Horizontal}.withDefaults(), graph: ds.Graph}
	for _, db := range []*DB{vf, hf} {
		strategy := db.cfg.Strategy
		dep, err := db.DeployParsed(workload)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]rdf.ID, len(queries))
		vars := make([][]string, len(queries))
		for i, q := range queries {
			b, stats, err := dep.engine.Query(q)
			if err != nil {
				t.Fatalf("%s %s: %v", strategy, names[i], err)
			}
			got[i], vars[i] = b.Rows, b.Vars
			if strategy == Vertical && (names[i] == "L5" || names[i] == "F5") && stats.Subqueries != 1 {
				t.Errorf("%s %s ran as %d subqueries, want its co-located subqueries merged into 1", strategy, names[i], stats.Subqueries)
			}
		}
		wg.Wait()
		for i := range queries {
			if !slices.Equal(vars[i], want[i].Vars) || !slices.Equal(got[i], want[i].Flat()) {
				t.Errorf("%s %s: %d rows over %v, the model %d over %v", strategy, names[i], len(got[i])/max(len(vars[i]), 1), vars[i], len(want[i].Rows), want[i].Vars)
			}
		}
	}
}
