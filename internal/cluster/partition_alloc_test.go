package cluster

import (
	"testing"

	"rdffrag/internal/rdf"
)

// TestPartitionRouteProbeZeroAllocs: the per-probed-row hot path of a
// partition worker — hashing the key columns in place, partition routing,
// table lookup, the chain walk — is allocation-free, extending the PR 2/PR
// 3 allocation discipline to the partitioned join.
func TestPartitionRouteProbeZeroAllocs(t *testing.T) {
	lkey, rkey := []int{1, 3}, []int{0, 2}
	tab := newJoinTable(4, rkey)
	for i := 0; i < 64; i++ {
		tab.add([]rdf.ID{2, rdf.ID(i), 4, rdf.ID(i)})
	}
	probe := []rdf.ID{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(1000, func() {
		if p := partitionFor(probe, lkey, 8); p < 0 || p >= 8 {
			t.Fatalf("partition out of range: %d", p)
		}
		c := tab.lookup(probe, lkey)
		if c.n != 64 || tab.older(c.newest) != 62 {
			t.Fatalf("probe found chain %+v", c)
		}
	})
	if allocs != 0 {
		t.Errorf("route+probe allocates %.1f per row, want 0", allocs)
	}
}

// TestPartitionedJoinSteadyStateAllocs guards the amortized whole-join
// cost: with the counting pass sizing the output exactly and keys chained
// through one table over the partition's own block, a partitioned batch
// join stays far below one allocation per probed row — the budget is
// per-partition setup (the routed blocks and index lists as they grow, a
// table and an output each), not per-row work. It measures 236
// allocations for 4000 probed rows (0.059 each); the ceiling is that plus
// 10%.
func TestPartitionedJoinSteadyStateAllocs(t *testing.T) {
	l := benchTable(4000, []string{"x", "y"})
	r := benchTable(4000, []string{"y", "z"})
	// Warm-up run so lazily initialized runtime state is excluded.
	HashJoinOpts(l, r, JoinOptions{Partitions: 4})
	allocs := testing.AllocsPerRun(5, func() {
		out := HashJoinOpts(l, r, JoinOptions{Partitions: 4})
		if out.Len() == 0 {
			t.Fatal("partitioned join produced nothing")
		}
	})
	perRow := allocs / float64(l.Len())
	t.Logf("%.0f allocations, %.4f per probed row", allocs, perRow)
	if perRow > 0.065 {
		t.Errorf("partitioned join allocates %.3f per probed row (%.0f total), want <= 0.065", perRow, allocs)
	}
}
