package mining

import (
	"reflect"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
	"rdffrag/internal/workload"
)

// TestMineRepresentativeGraphsRepeat: the graph kept for a canonical code
// — its vertex and edge numbering, which minterm constraints are written
// in — must not depend on map iteration order, or two processes mining
// one workload fragment differently.
func TestMineRepresentativeGraphsRepeat(t *testing.T) {
	ds := watdiv.Generate(watdiv.Options{Triples: 5000, Seed: 1})
	wd, err := ds.GenerateWorkload(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.GenerateDBpedia(workload.DBpediaOptions{Triples: 4000, Queries: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string][]*sparql.Graph{"watdiv": wd, "dbpedia-log": db.Log} {
		m := &Miner{MinSup: max(1, len(w)/100)}
		first := m.Mine(w)
		if len(first) < 10 {
			t.Fatalf("%s: only %d patterns mined; the fixture proves nothing", name, len(first))
		}
		for run := 1; run < 20; run++ {
			again := m.Mine(w)
			if len(again) != len(first) {
				t.Fatalf("%s run %d: %d patterns, run 0 had %d", name, run, len(again), len(first))
			}
			for i, p := range again {
				want := first[i]
				if p.Code != want.Code || p.Support != want.Support ||
					!reflect.DeepEqual(p.Graph.Verts, want.Graph.Verts) ||
					!reflect.DeepEqual(p.Graph.Edges, want.Graph.Edges) {
					t.Fatalf("%s run %d, pattern %d (%s):\n got %+v %+v\nwant %+v %+v", name, run, i, want.Code,
						p.Graph.Verts, p.Graph.Edges, want.Graph.Verts, want.Graph.Edges)
				}
			}
		}
	}
}

// TestCanonicalOrderIgnoresNumbering: renumbering a graph's vertices and
// reordering its edges permutes CanonicalOrder the same way — the
// position it gives a vertex is the vertex's, not its index's.
func TestCanonicalOrderIgnoresNumbering(t *testing.T) {
	// A path a -p1-> b -p2-> c -p3-> d has no automorphism.
	build := func(order []int) (*sparql.Graph, map[string]int) {
		g := sparql.NewGraph()
		edges := []struct {
			from string
			pred rdf.ID
			to   string
		}{{"a", 1, "b"}, {"b", 2, "c"}, {"c", 3, "d"}}
		for _, i := range order {
			e := edges[i]
			g.AddTriplePattern(sparql.Vertex{Var: e.from}, sparql.Edge{Pred: e.pred}, sparql.Vertex{Var: e.to})
		}
		at := make(map[string]int)
		for i, v := range g.Verts {
			at[v.Var] = i
		}
		return g, at
	}
	g1, at1 := build([]int{0, 1, 2})
	g2, at2 := build([]int{2, 0, 1})
	if CanonicalCode(g1) != CanonicalCode(g2) {
		t.Fatal("fixture graphs are not isomorphic")
	}
	if reflect.DeepEqual(at1, at2) {
		t.Fatal("fixture graphs number their vertices alike")
	}
	o1, o2 := CanonicalOrder(g1), CanonicalOrder(g2)
	seen := make(map[int]bool)
	for _, v := range []string{"a", "b", "c", "d"} {
		if o1[at1[v]] != o2[at2[v]] {
			t.Errorf("vertex %s: canonical position %d in one numbering, %d in the other", v, o1[at1[v]], o2[at2[v]])
		}
		seen[o1[at1[v]]] = true
	}
	if len(seen) != 4 {
		t.Errorf("canonical positions %v are not a permutation", o1)
	}
}
