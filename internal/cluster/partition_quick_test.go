package cluster

// Property harness for the partitioned parallel control-site join. One
// randomized corpus of binding-table pairs — spanning shared-variable
// layouts (one shared, reordered multi-shared, all shared, Cartesian,
// >4-column string-fallback keys), key distributions (uniform, heavily
// skewed, near-unique), empty sides and ragged rows — drives every join
// operator against a nested-loop oracle:
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
// row in arrival order, its matching right rows in arrival order. It
// mirrors the documented semantics: rows missing a shared column have no
// join key and match nothing; missing output columns pad with NoID.
func nestedLoopOracle(left, right *match.Bindings) *match.Bindings {
	g := newJoinGeom(left.Vars, right.Vars)
	shared, rightOnly := g.shared, g.rightOnly
	out := &match.Bindings{Vars: JoinVars(left.Vars, right.Vars)}
	lw := len(left.Vars)
	for _, lr := range left.Rows {
		if !g.lKeyable(lr) {
			continue
		}
		for _, rr := range right.Rows {
			if !g.rKeyable(rr) {
				continue
			}
			eq := true
			for _, c := range shared {
				if lr[c.l] != rr[c.r] {
					eq = false
					break
				}
			}
			if !eq {
				continue
			}
			row := make([]rdf.ID, lw+len(rightOnly))
			n := copy(row[:lw], lr)
			for i := n; i < lw; i++ {
				row[i] = rdf.NoID
			}
			for i, j := range rightOnly {
				if j < len(rr) {
					row[lw+i] = rr[j]
				} else {
					row[lw+i] = rdf.NoID
				}
			}
			out.Rows = append(out.Rows, row)
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
	// Five shared columns: wider than maxPackedCols, exercising the
	// string-fallback keys and their partition routing.
	{{"a", "b", "c", "d", "e", "l0"}, {"e", "d", "c", "b", "a", "r0"}},
}

// genJoinCase draws one randomized join instance: a variable layout, two
// tables with a chosen key distribution, optionally an empty side and
// optionally ragged rows.
func genJoinCase(rng *rand.Rand) (left, right *match.Bindings) {
	layout := joinLayouts[rng.Intn(len(joinLayouts))]
	draw := func(vars []string) *match.Bindings {
		n := rng.Intn(50)
		if rng.Intn(8) == 0 {
			n = 0 // empty side
		}
		return genJoinTable(rng, vars, n, rng.Intn(3), rng.Intn(4) == 0)
	}
	return draw(layout[0]), draw(layout[1])
}

// genJoinTable draws n rows over vars: skew 0 is uniform over six values,
// 1 collapses ~80% of values onto one key, anything else is near-unique;
// ragged cuts about one row in eight short.
func genJoinTable(rng *rand.Rand, vars []string, n, skew int, ragged bool) *match.Bindings {
	b := &match.Bindings{Vars: vars}
	for i := 0; i < n; i++ {
		row := make([]rdf.ID, len(vars))
		for j := range row {
			switch skew {
			case 0:
				row[j] = rdf.ID(rng.Intn(6))
			case 1:
				if rng.Intn(5) > 0 {
					row[j] = 1
				} else {
					row[j] = rdf.ID(rng.Intn(8))
				}
			default:
				row[j] = rdf.ID(rng.Intn(512))
			}
		}
		if ragged && rng.Intn(8) == 0 {
			row = row[:rng.Intn(len(row))]
		}
		b.Rows = append(b.Rows, row)
	}
	return b
}

func rowsExactEqual(a, b [][]rdf.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runJoinStream feeds both tables through JoinStreamOpts in randomized
// batch sizes and collects the emitted rows in emission order.
func runJoinStream(t *testing.T, rng *rand.Rand, left, right *match.Bindings, opts JoinOptions) *match.Bindings {
	t.Helper()
	lch := make(chan *match.Bindings, 2)
	rch := make(chan *match.Bindings, 2)
	out := make(chan *match.Bindings, 4)
	go sendBatches(lch, left.Vars, left.Rows, 1+rng.Intn(16))
	go sendBatches(rch, right.Vars, right.Rows, 1+rng.Intn(16))
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
	if got := HashJoin(left, right); !slices.Equal(got.Vars, want.Vars) || !rowsExactEqual(got.Rows, want.Rows) {
		t.Logf("HashJoin diverged from oracle (%d rows vs %d)", len(got.Rows), len(want.Rows))
		return false
	}
	wm := multiset(want)
	for _, p := range partitionCounts {
		if got := HashJoinOpts(left, right, JoinOptions{Partitions: p}); !rowsExactEqual(got.Rows, want.Rows) {
			t.Logf("HashJoinOpts(P=%d) diverged from oracle", p)
			return false
		}
		// Deterministic stream: byte-identical regardless of batch
		// boundaries and input interleaving.
		got := runJoinStream(t, rng, left, right, JoinOptions{Partitions: p, Deterministic: true})
		if !slices.Equal(got.Vars, want.Vars) || !rowsExactEqual(got.Rows, want.Rows) {
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
// and well past the boundaries of the symmetric join's chunked row store
// and of the chain table's next array through every layout — Cartesian,
// string-key fallback and ragged rows included — against the oracle.
func TestJoinAcrossChunkBoundaries(t *testing.T) {
	sizes := []int{rowStoreFirst, rowStoreFirst + 1, 3 * rowStoreFirst, 3*rowStoreFirst + 1, 16, 17, 33, 4097}
	rng := rand.New(rand.NewSource(17))
	for li, layout := range joinLayouts {
		for _, n := range sizes {
			nr := n
			if li == 3 && n > 64 {
				nr = 3 // Cartesian: keep the product small
			}
			for _, ragged := range []bool{false, true} {
				if n > 64 && (!ragged || li == 1 || li == 2) {
					continue // the big case once per key kind is enough under -race
				}
				// Near-unique keys keep the big cases' outputs near their inputs.
				left := genJoinTable(rng, layout[0], n, 2, ragged)
				right := genJoinTable(rng, layout[1], nr, 2, ragged)
				if !checkJoinAgainstOracle(t, rng, left, right, []int{1, 3}) {
					t.Errorf("layout %d, %d x %d rows, ragged=%v: diverged from the nested-loop oracle", li, n, nr, ragged)
				}
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
		cols := []colPair{{l: 0, r: 1}, {l: 2, r: 0}}
		lrow := []rdf.ID{rdf.ID(rng.Intn(16)), rdf.ID(rng.Intn(16)), rdf.ID(rng.Intn(16))}
		rrow := []rdf.ID{lrow[2], lrow[0], rdf.ID(rng.Intn(16))}
		for _, p := range []int{2, 3, 8, 64} {
			lp := partitionFor(lrow, cols, true, p)
			rp := partitionFor(rrow, cols, false, p)
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
		left <- &match.Bindings{Vars: lv, Rows: [][]rdf.ID{{1, 2}, {3, 4}}}
		cancel()
		for range out {
		}
		<-done
	}
}
