package rdffrag

// Every `rdffrag site` process runs the offline pipeline on its own, and
// the /eval fingerprint does not cover fragment contents: two processes
// given the same files must build the same fragments at the same sites,
// or a networked deployment answers wrongly. One process deploying
// several times stands in for several processes — what differed between
// them was map iteration order, which differs between calls too.

import (
	"fmt"
	"strings"
	"testing"

	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// watdivDB wraps a generated WatDiv data set of about the given size, and
// the 400-query template workload its deployments are mined from.
func watdivDB(t testing.TB, triples int, cfg Config) (*DB, *watdiv.Dataset, []*sparql.Graph) {
	t.Helper()
	ds := watdiv.Generate(watdiv.Options{Triples: triples, Seed: 1})
	workload, err := ds.GenerateWorkload(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &DB{cfg: cfg.withDefaults(), graph: ds.Graph}, ds, workload
}

// deploymentShape lists what a query can observe of the offline
// pipeline's outcome: each fragment's key, size and site, each site's
// stored triples, then the plan of every probe query.
func deploymentShape(t *testing.T, dep *Deployment, probes []*sparql.Graph) string {
	t.Helper()
	var b strings.Builder
	for _, f := range dep.frag.All() {
		fmt.Fprintf(&b, "%d %s %d @%d\n", f.ID, f.Key(), f.Size, dep.alloc.SiteOf[f.ID])
	}
	for s, g := range dep.alloc.Graphs {
		fmt.Fprintf(&b, "site %d stores %d\n", s, g.NumTriples())
	}
	for i, q := range probes {
		ex, err := dep.engine.Explain(q)
		if err != nil {
			t.Fatalf("explain probe %d: %v", i, err)
		}
		fmt.Fprintf(&b, "q%d %+v\n", i, *ex)
	}
	return b.String()
}

func TestDeployDeterministic(t *testing.T) {
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			db, ds, workload := watdivDB(t, 20000, Config{Strategy: strategy, MinSupport: 0.01, StorageFactor: 3})
			probes, err := ds.GenerateWorkload(300, 7)
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for i := 0; i < 8; i++ {
				// Deploy consumes the store, not the dataset's graph it holds.
				db = &DB{cfg: db.cfg, graph: ds.Graph}
				dep, err := db.DeployParsed(workload)
				if err != nil {
					t.Fatal(err)
				}
				got := deploymentShape(t, dep, probes)
				if i == 0 {
					want = got
					if strategy == Horizontal && !strings.Contains(got, "|v") {
						t.Fatal("no minterm fragment: the fixture does not exercise the tie-break")
					}
					continue
				}
				if got != want {
					t.Fatalf("deploy %d differs from deploy 0:\n%s", i, firstDiff(want, got))
				}
			}
		})
	}
}

// firstDiff renders the first line two multi-line strings disagree on.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  - %s\n  + %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(al), len(bl))
}
