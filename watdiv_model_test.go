package rdffrag

import (
	"slices"
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
// The model looks each edge's candidates up by predicate and bound end,
// so it answers the templates in a fraction of the deployments' time, on
// the whole fixture and under the race detector too.
func TestWatDivTemplatesMatchModel(t *testing.T) {
	vf, ds, workload := watdivDB(t, 50000, Config{Strategy: Vertical})
	queries, names, err := ds.BenchmarkQueries(1)
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Graph.Triples()
	want := make([]*model.Table, len(queries))
	for i, q := range queries {
		want[i] = model.Answer(q, all)
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
		for i := range queries {
			if !slices.Equal(vars[i], want[i].Vars) || !slices.Equal(got[i], want[i].Flat()) {
				t.Errorf("%s %s: %d rows over %v, the model %d over %v", strategy, names[i], len(got[i])/max(len(vars[i]), 1), vars[i], len(want[i].Rows), want[i].Vars)
			}
		}
	}
}
