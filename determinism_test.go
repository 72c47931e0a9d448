package rdffrag

// Every `rdffrag site` process runs the offline pipeline on its own, and
// the /eval fingerprint does not cover fragment contents: two processes
// given the same files must build the same fragments at the same sites,
// or a networked deployment answers wrongly. Deploying several times in
// one process catches what differs between calls, map iteration order
// first; deploying once more in another catches what differs only between
// processes. That other process runs on one thread (GOMAXPROCS=1), so
// the offline pipeline's batches, which fan out over patterns, run there
// one pattern after another: what the concurrent deploys build must not
// depend on the order their patterns finish in.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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

// childOut names, in the environment of this test binary run again by
// TestDeployDeterministic, the file the child writes what it deployed to.
const childOut = "RDFFRAG_TEST_CHILD_OUT"

// TestDeployDeterministic: the 20 000-triple WatDiv input deploys to the
// same deploymentShape, and saves to the same bytes, eight times in this
// process and once in another — this test binary run again, on one
// thread.
func TestDeployDeterministic(t *testing.T) {
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			db, ds, workload := watdivDB(t, 20000, Config{Strategy: strategy, MinSupport: 0.01, StorageFactor: 3})
			probes, err := ds.GenerateWorkload(300, 7)
			if err != nil {
				t.Fatal(err)
			}
			deploy := func() string {
				// Deploy consumes the store, not the dataset's graph it holds.
				dep, err := (&DB{cfg: db.cfg, graph: ds.Graph}).DeployParsed(workload)
				if err != nil {
					t.Fatal(err)
				}
				var img bytes.Buffer
				if err := dep.Save(&img); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("save %x\n%s", sha256.Sum256(img.Bytes()), deploymentShape(t, dep, probes))
			}
			want := deploy()
			if out := os.Getenv(childOut); out != "" {
				if err := os.WriteFile(out, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if strategy == Horizontal && !strings.Contains(want, "|v") {
				t.Fatal("no minterm fragment: the fixture does not exercise the tie-break")
			}
			for i := 1; i < 8; i++ {
				if got := deploy(); got != want {
					t.Fatalf("deploy %d differs from deploy 0:\n%s", i, firstDiff(want, got))
				}
			}
			out := filepath.Join(t.TempDir(), "deployed")
			cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
			cmd.Env = append(os.Environ(), childOut+"="+out, "GOMAXPROCS=1")
			if log, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("another process: %v\n%s", err, log)
			}
			if got, err := os.ReadFile(out); err != nil || string(got) != want {
				t.Fatalf("another process deployed differently (%v):\n%s", err, firstDiff(want, string(got)))
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
