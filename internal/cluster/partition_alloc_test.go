package cluster

import (
	"testing"

	"rdffrag/internal/rdf"
)

// TestPartitionRouteProbeZeroAllocs: the per-probed-row hot path of a
// partition worker — keyability check, packed-key build, partition
// routing, table lookup — is allocation-free, extending the PR 2/PR 3
// allocation discipline to the partitioned join.
func TestPartitionRouteProbeZeroAllocs(t *testing.T) {
	cols := []colPair{{l: 1, r: 0}, {l: 3, r: 2}}
	tab := newJoinTable(cols, 64)
	for i := 0; i < 64; i++ {
		tab.add([]rdf.ID{rdf.ID(i), 2, rdf.ID(i), 4}, false, int32(i))
	}
	g := &joinGeom{shared: cols, lNeed: 4, rNeed: 3}
	probe := []rdf.ID{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(1000, func() {
		if !g.lKeyable(probe) {
			t.Fatal("probe row not keyable")
		}
		if p := partitionFor(probe, cols, true, 8); p < 0 || p >= 8 {
			t.Fatalf("partition out of range: %d", p)
		}
		_ = tab.lookup(probe, true)
	})
	if allocs != 0 {
		t.Errorf("route+probe allocates %.1f per row, want 0", allocs)
	}
}

// TestPartitionedJoinSteadyStateAllocs guards the amortized whole-join
// cost: with the counting pass presizing the output, rows carved from
// chunked arenas and keys chained through one flat table instead of a
// slice each, a partitioned batch join stays far below one allocation
// per probed row — the budget is per-partition setup (tables, arenas,
// presized slices, routing buffers), not per-row work. It measures 237
// allocations for 4000 probed rows (0.059 each; 0.20 with a slice per
// key); the ceiling is that plus 20%.
func TestPartitionedJoinSteadyStateAllocs(t *testing.T) {
	l := benchTable(4000, []string{"x", "y"})
	r := benchTable(4000, []string{"y", "z"})
	// Warm-up run so lazily initialized runtime state is excluded.
	HashJoinOpts(l, r, JoinOptions{Partitions: 4})
	allocs := testing.AllocsPerRun(5, func() {
		out := HashJoinOpts(l, r, JoinOptions{Partitions: 4})
		if len(out.Rows) == 0 {
			t.Fatal("partitioned join produced nothing")
		}
	})
	perRow := allocs / float64(len(l.Rows))
	if perRow > 0.071 {
		t.Errorf("partitioned join allocates %.3f per probed row (%.0f total), want <= 0.071", perRow, allocs)
	}
}
