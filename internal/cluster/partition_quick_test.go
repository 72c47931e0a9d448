package cluster

// Property harness for the partitioned parallel control-site join. One
// randomized corpus of binding-table pairs — spanning shared-variable
// layouts (one shared, reordered multi-shared, all shared, Cartesian,
// five shared columns, a side or both without variables), key
// distributions (uniform, heavily skewed, near-unique) and empty sides —
// drives every join operator against a nested-loop oracle:
//
//   - HashJoin and HashJoinOpts at every partition count are
//     byte-identical to the oracle (exact rows, exact order);
//   - JoinStreamOpts in deterministic mode is byte-identical to the
//     oracle at every partition count, batch size and input interleaving;
//   - JoinStreamOpts in streaming mode (and the legacy JoinStream) emit
//     exactly the oracle's row multiset.
//
// Run under -race in CI, this is the correctness gate for the
// shared-nothing partition workers and both merge modes.

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// nestedLoopOracle joins two tables the slow, obviously-correct way, in
// exactly the order the ordered operators must reproduce: for each left
// row in arrival order, its matching right rows in arrival order.
func nestedLoopOracle(left, right *match.Bindings) *match.Bindings {
	g := newJoinGeom(left.Vars, right.Vars)
	out := &match.Bindings{Vars: JoinVars(left.Vars, right.Vars)}
	for _, lr := range tableRows(left) {
		for _, rr := range tableRows(right) {
			eq := true
			for k := range g.lkey {
				if lr[g.lkey[k]] != rr[g.rkey[k]] {
					eq = false
					break
				}
			}
			if !eq {
				continue
			}
			out.Rows = append(out.Rows, lr...)
			for _, j := range g.rightOnly {
				out.Rows = append(out.Rows, rr[j])
			}
			if len(out.Vars) == 0 {
				out.Nullary++
			}
		}
	}
	return out
}

// joinLayouts are the variable layouts the corpus draws from.
var joinLayouts = [][2][]string{
	{{"x", "y"}, {"y", "z"}},
	{{"a", "b", "c"}, {"c", "a", "d"}},
	{{"x", "y"}, {"x", "y"}},
	{{"x", "y"}, {"z", "w"}}, // Cartesian
	// Five shared columns: a key wider than any fixed-size packing.
	{{"a", "b", "c", "d", "e", "l0"}, {"e", "d", "c", "b", "a", "r0"}},
	// A side without variables — the table of an all-constant pattern —
	// joins as a Cartesian factor: its row count multiplies the other's.
	{{}, {"x", "y"}},
	{{"x"}, {}},
	{{}, {}},
}

// cartesianLayout reports whether a layout shares no variable.
func cartesianLayout(layout [2][]string) bool { return !Partitionable(layout[0], layout[1]) }

// genJoinCase draws one randomized join instance: a variable layout and
// two tables with a chosen key distribution, optionally an empty side.
func genJoinCase(rng *rand.Rand) (left, right *match.Bindings) {
	layout := joinLayouts[rng.Intn(len(joinLayouts))]
	draw := func(vars []string) *match.Bindings {
		n := rng.Intn(50)
		if rng.Intn(8) == 0 {
			n = 0 // empty side
		}
		return genJoinTable(rng, vars, n, rng.Intn(3))
	}
	return draw(layout[0]), draw(layout[1])
}

// genJoinTable draws n rows over vars: skew 0 is uniform over six values,
// 1 collapses ~80% of values onto one key, anything else is near-unique.
func genJoinTable(rng *rand.Rand, vars []string, n, skew int) *match.Bindings {
	b := match.NewBindings(vars, nil, n)
	for i := 0; i < n*len(vars); i++ {
		switch skew {
		case 0:
			b.Rows = append(b.Rows, rdf.ID(rng.Intn(6)))
		case 1:
			if rng.Intn(5) > 0 {
				b.Rows = append(b.Rows, 1)
			} else {
				b.Rows = append(b.Rows, rdf.ID(rng.Intn(8)))
			}
		default:
			b.Rows = append(b.Rows, rdf.ID(rng.Intn(512)))
		}
	}
	return b
}

// tablesExactEqual: the same rows in the same order.
func tablesExactEqual(a, b *match.Bindings) bool {
	return a.Len() == b.Len() && slices.Equal(a.Rows, b.Rows)
}

// runJoinStream feeds both tables through JoinStreamOpts in randomized
// batch sizes and collects the emitted rows in emission order.
func runJoinStream(t *testing.T, rng *rand.Rand, left, right *match.Bindings, opts JoinOptions) *match.Bindings {
	t.Helper()
	lch := make(chan *match.Bindings, 2)
	rch := make(chan *match.Bindings, 2)
	out := make(chan *match.Bindings, 4)
	go sendBatches(lch, left, 1+rng.Intn(16))
	go sendBatches(rch, right, 1+rng.Intn(16))
	go JoinStreamOpts(context.Background(), left.Vars, right.Vars, lch, rch, out, opts)
	got := collect(out)
	if got == nil {
		got = &match.Bindings{Vars: JoinVars(left.Vars, right.Vars)}
	}
	return got
}

// TestPartitionedJoinEquivalenceProperty is the PR's correctness gate:
// partitioned ≡ sequential ≡ HashJoin ≡ nested-loop oracle across the
// generated corpus, exact row order for the ordered operators and
// multiset equality for the streaming ones.
func TestPartitionedJoinEquivalenceProperty(t *testing.T) {
	partitionCounts := []int{1, 2, 3, 8}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		left, right := genJoinCase(rng)
		if !checkJoinAgainstOracle(t, rng, left, right, partitionCounts) {
			t.Logf("seed %d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// checkJoinAgainstOracle runs one join instance through the ordered
// operators (exact rows, exact order) and the streaming ones (same row
// multiset) at the given partition counts.
func checkJoinAgainstOracle(t *testing.T, rng *rand.Rand, left, right *match.Bindings, partitionCounts []int) bool {
	t.Helper()
	want := nestedLoopOracle(left, right)
	if got := HashJoin(left, right); !slices.Equal(got.Vars, want.Vars) || !tablesExactEqual(got, want) {
		t.Logf("HashJoin diverged from oracle (%d rows vs %d)", got.Len(), want.Len())
		return false
	}
	wm := multiset(want)
	for _, p := range partitionCounts {
		if got := HashJoinOpts(left, right, JoinOptions{Partitions: p}); !tablesExactEqual(got, want) {
			t.Logf("HashJoinOpts(P=%d) diverged from oracle", p)
			return false
		}
		// Deterministic stream: byte-identical regardless of batch
		// boundaries and input interleaving.
		got := runJoinStream(t, rng, left, right, JoinOptions{Partitions: p, Deterministic: true})
		if !slices.Equal(got.Vars, want.Vars) || !tablesExactEqual(got, want) {
			t.Logf("deterministic JoinStreamOpts(P=%d) diverged from oracle", p)
			return false
		}
		// Streaming mode (P=1 is the legacy sequential JoinStream): same
		// row multiset, order unconstrained.
		gm := multiset(runJoinStream(t, rng, left, right, JoinOptions{Partitions: p}))
		if len(gm) != len(wm) {
			t.Logf("streaming JoinStreamOpts(P=%d): %d distinct rows, want %d", p, len(gm), len(wm))
			return false
		}
		for k, v := range wm {
			if gm[k] != v {
				t.Logf("streaming JoinStreamOpts(P=%d): row %s count %d, want %d", p, k, gm[k], v)
				return false
			}
		}
	}
	return true
}

// TestJoinAcrossChunkBoundaries drives table sizes that end on, one past
// and well past the chunk boundaries of the symmetric join's row store
// and chain links, and past several doublings of its slot table, through
// every layout — Cartesian, five-column keys and sides without variables
// included — against the oracle.
func TestJoinAcrossChunkBoundaries(t *testing.T) {
	sizes := []int{rowStoreFirst, rowStoreFirst + 1, 3 * rowStoreFirst, 3*rowStoreFirst + 1, 16, 17, 33, 4097}
	rng := rand.New(rand.NewSource(17))
	for li, layout := range joinLayouts {
		for _, n := range sizes {
			nr := n
			if cartesianLayout(layout) && n > 64 {
				nr = 3 // Cartesian: keep the product small
			}
			if n > 64 && (li == 1 || li == 2) {
				continue // the big case once per key kind is enough under -race
			}
			// Near-unique keys keep the big cases' outputs near their inputs.
			left := genJoinTable(rng, layout[0], n, 2)
			right := genJoinTable(rng, layout[1], nr, 2)
			if !checkJoinAgainstOracle(t, rng, left, right, []int{1, 3}) {
				t.Errorf("layout %d, %d x %d rows: diverged from the nested-loop oracle", li, n, nr)
			}
		}
	}
}

// TestPartitionRoutingIsConsistent pins the partition-routing invariant
// the shared-nothing design rests on: rows equal on every shared column
// route to the same partition, from either side, at any partition count.
func TestPartitionRoutingIsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lkey, rkey := []int{0, 2}, []int{1, 0}
		lrow := []rdf.ID{rdf.ID(rng.Intn(16)), rdf.ID(rng.Intn(16)), rdf.ID(rng.Intn(16))}
		rrow := []rdf.ID{lrow[2], lrow[0], rdf.ID(rng.Intn(16))}
		for _, p := range []int{2, 3, 8, 64} {
			lp := partitionFor(lrow, lkey, p)
			rp := partitionFor(rrow, rkey, p)
			if lp != rp {
				t.Logf("seed %d: matching rows routed to partitions %d and %d of %d", seed, lp, rp, p)
				return false
			}
			if lp < 0 || lp >= p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestJoinStreamPartitionedCancel: cancelling the context mid-stream
// stops every router and partition worker and closes the output — the
// shared kill switch that lets LIMIT terminate a partitioned join early.
func TestJoinStreamPartitionedCancel(t *testing.T) {
	for _, det := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		lv, rv := []string{"x", "y"}, []string{"y", "z"}
		left := make(chan *match.Bindings)
		right := make(chan *match.Bindings)
		out := make(chan *match.Bindings)
		done := make(chan struct{})
		go func() {
			JoinStreamOpts(ctx, lv, rv, left, right, out, JoinOptions{Partitions: 4, Deterministic: det})
			close(done)
		}()
		// Feed one batch so workers are mid-join, then cancel without
		// closing the inputs: only the kill switch can stop the join.
		left <- &match.Bindings{Vars: lv, Rows: []rdf.ID{1, 2, 3, 4}}
		cancel()
		for range out {
		}
		<-done
	}
}
