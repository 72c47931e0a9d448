package rdffrag

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// TestDeployTotalAlloc bounds what the offline pipeline allocates on the
// 50 000-triple WatDiv fixture (44 420 triples, 400 design queries).
// Matching each pattern once into a bitmap and building fragments frozen
// took it from 272.9 MB (vertical) and 322.6 MB (horizontal) to 48.9 and
// 102.3 MB; fragment graphs that allocate no membership map and one
// build-time offset table instead of four, to 40.7 and 87.4 MB; graphs
// that keep no triple list beside their arenas, to the figures below. The
// ceilings are those plus 25 %. A matched graph built through the
// map-mode Add, a second match per selected pattern or a per-match bucket
// each put it back over. What is left is mostly the
// workload side — embeddings enumerated by allocation and the data
// dictionary — which does not grow with the graph.
func TestDeployTotalAlloc(t *testing.T) {
	// Each matcher worker has a bitmap of its own; fix how many there are.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for strategy, ceiling := range map[Strategy]uint64{
		Vertical:   deployAllocVertical * 5 / 4,
		Horizontal: deployAllocHorizontal * 5 / 4,
	} {
		db, _, workload := watdivDB(t, 50000, Config{Strategy: strategy})
		db.graph.Freeze()
		perRun := make([]uint64, 5)
		var before, after runtime.MemStats
		for i := range perRun {
			runtime.ReadMemStats(&before)
			if _, err := db.DeployParsed(workload); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perRun[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(perRun)
		median := perRun[len(perRun)/2]
		t.Logf("%s: Deploy allocates %.1f MB (ceiling %.1f)", strategy, float64(median)/1e6, float64(ceiling)/1e6)
		if median > ceiling {
			t.Errorf("%s: Deploy allocates %d B, want <= %d", strategy, median, ceiling)
		}
	}
}

// What Deploy measured when the ceilings were set.
const (
	deployAllocVertical   = 36_900_000
	deployAllocHorizontal = 83_200_000
)

// TestDeployLiveHeap bounds what a deployment keeps, on the same fixture:
// the heap still live after a collection with the loaded graph and the
// Deployment reachable. With an offset table entry per dictionary ID in
// every fragment graph and a membership map beside every CSR it was
// 24.0 MB (vertical) and 31.1 MB (horizontal); graphs sized by their
// triples kept 12.4 and 13.0 MB, of which 3.3 MB were each graph's
// insertion-order list and vertex list; a triple kept in the three arenas
// and nowhere else leaves the figures below, and the ceilings are those
// plus 25 %.
func TestDeployLiveHeap(t *testing.T) {
	for strategy, ceiling := range map[Strategy]uint64{
		Vertical:   deployLiveVertical * 5 / 4,
		Horizontal: deployLiveHorizontal * 5 / 4,
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db, _, workload := watdivDB(t, 50000, Config{Strategy: strategy})
		db.graph.Freeze()
		dep, err := db.DeployParsed(workload)
		if err != nil {
			t.Fatal(err)
		}
		workload = nil
		runtime.GC()
		runtime.ReadMemStats(&after)
		live := after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
		t.Logf("%s: a loaded graph and its deployment keep %.1f MB (ceiling %.1f)", strategy, float64(live)/1e6, float64(ceiling)/1e6)
		if live > ceiling {
			t.Errorf("%s: %d B live, want <= %d", strategy, live, ceiling)
		}
		runtime.KeepAlive(db)
		runtime.KeepAlive(dep)
	}
}

// What stayed live when the ceilings were set.
const (
	deployLiveVertical   = 9_100_000
	deployLiveHorizontal = 9_600_000
)

// TestLoadTotalAlloc bounds what loading allocates on the same fixture:
// Open, LoadNTriples of its 44 420 triples (2.3 MB of N-Triples) and
// Freeze. Through a membership map and three map-of-slices indexes, all
// dropped by Freeze, it was 23.0 MB; parsed into a triple list and built
// once, 15.7 MB; with the list sorted in place — which drops repeats
// without a dedup map — and not kept, the figure below, and the ceiling is
// that plus 10 %. A second index built during the load puts it back over.
// What is left is mostly the dictionary and the parser's strings, then
// the parsed list and the arenas.
func TestLoadTotalAlloc(t *testing.T) {
	_, ds, _ := watdivDB(t, 50000, Config{})
	var doc bytes.Buffer // as datagen writes it, in generation order: the load sorts
	for _, tr := range ds.Triples {
		fmt.Fprintln(&doc, ds.Graph.TripleString(tr))
	}
	perRun := make([]uint64, 5)
	var before, after runtime.MemStats
	for i := range perRun {
		runtime.ReadMemStats(&before)
		db := Open(Config{})
		if n, err := db.LoadNTriples(bytes.NewReader(doc.Bytes())); err != nil || n != ds.Graph.NumTriples() {
			t.Fatalf("loaded %d of %d triples: %v", n, ds.Graph.NumTriples(), err)
		}
		db.graph.Freeze()
		runtime.ReadMemStats(&after)
		perRun[i] = after.TotalAlloc - before.TotalAlloc
		if db.graph.DeltaLen() != 0 || db.graph.Compactions() != 0 || !slices.Equal(db.graph.Triples(), ds.Graph.Triples()) {
			t.Fatalf("the loaded graph is not the fixture in one generation: delta %d, %d compactions", db.graph.DeltaLen(), db.graph.Compactions())
		}
	}
	slices.Sort(perRun)
	median, ceiling := perRun[len(perRun)/2], uint64(loadAlloc*11/10)
	t.Logf("Open, LoadNTriples and Freeze allocate %.1f MB (ceiling %.1f)", float64(median)/1e6, float64(ceiling)/1e6)
	if median > ceiling {
		t.Errorf("loading allocates %d B, want <= %d", median, ceiling)
	}
}

// What the load measured when the ceiling was set.
const loadAlloc = 13_700_000
