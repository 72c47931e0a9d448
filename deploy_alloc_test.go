package rdffrag

import (
	"runtime"
	"slices"
	"testing"
)

// TestDeployTotalAlloc bounds what the offline pipeline allocates on the
// 50 000-triple WatDiv fixture (44 420 triples, 400 design queries).
// Matching each pattern once into a bitmap and building fragments frozen
// took it from 272.9 MB (vertical) and 322.6 MB (horizontal) to the
// figures below; the ceilings are those plus 25 %. A matched graph built
// through the map-mode Add, a second match per selected pattern or a
// per-match bucket each put it back over. What is left is mostly the
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
	deployAllocVertical   = 48_900_000
	deployAllocHorizontal = 102_300_000
)
