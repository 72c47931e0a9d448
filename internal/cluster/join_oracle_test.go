package cluster

// The join oracle test. One randomized corpus of binding-table pairs —
// spanning shared-variable layouts (one shared, reordered multi-shared,
// all shared, Cartesian, five shared columns, a side or both without
// variables), key distributions (uniform, heavily skewed, near-unique)
// and empty sides — drives both join operators against a nested-loop
// oracle:
//
//   - HashJoin is byte-identical to the oracle (exact rows, exact order);
//   - JoinStream emits exactly the oracle's row multiset at every batch
//     size and input interleaving;
//   - JoinStream fed its whole right stream before the first left batch
//     is byte-identical to the oracle too: emit order = insertion order.
//
// Run under -race in CI.

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
	out := &match.Bindings{Vars: g.outVars}
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
func cartesianLayout(layout [2][]string) bool {
	return len(newJoinGeom(layout[0], layout[1]).lkey) == 0
}

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

// runJoinStream feeds both tables through JoinStream in randomized batch
// sizes and collects the emitted rows in emission order. With rightFirst
// the join has taken in the whole right table before the left one starts:
// the right channel is unbuffered and JoinStream probes a batch before it
// receives another, so the last right send returning means all of right
// is stored or about to be, ahead of any left batch.
func runJoinStream(rng *rand.Rand, left, right *match.Bindings, rightFirst bool) *match.Bindings {
	rbuf := 2
	if rightFirst {
		rbuf = 0
	}
	lch := make(chan *match.Bindings, 2)
	rch := make(chan *match.Bindings, rbuf)
	out := make(chan *match.Bindings, 4)
	lbatch, rbatch := 1+rng.Intn(16), 1+rng.Intn(16)
	if rightFirst {
		go func() {
			sendBatches(rch, right, rbatch)
			sendBatches(lch, left, lbatch)
		}()
	} else {
		go sendBatches(lch, left, lbatch)
		go sendBatches(rch, right, rbatch)
	}
	go JoinStream(context.Background(), left.Vars, right.Vars, lch, rch, out)
	got := collect(out)
	if got == nil {
		got = &match.Bindings{Vars: JoinVars(left.Vars, right.Vars)}
	}
	return got
}

// TestJoinEquivalenceProperty: HashJoin ≡ JoinStream ≡ nested-loop oracle
// across the generated corpus.
func TestJoinEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		left, right := genJoinCase(rng)
		if !checkJoinAgainstOracle(t, rng, left, right) {
			t.Logf("seed %d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// checkJoinAgainstOracle runs one join instance through HashJoin and the
// right-first JoinStream (exact rows, exact order) and through JoinStream
// under randomized interleaving (same row multiset).
func checkJoinAgainstOracle(t *testing.T, rng *rand.Rand, left, right *match.Bindings) bool {
	t.Helper()
	want := nestedLoopOracle(left, right)
	if got := HashJoin(left, right); !slices.Equal(got.Vars, want.Vars) || !tablesExactEqual(got, want) {
		t.Logf("HashJoin diverged from oracle (%d rows vs %d)", got.Len(), want.Len())
		return false
	}
	if got := runJoinStream(rng, left, right, true); !slices.Equal(got.Vars, want.Vars) || !tablesExactEqual(got, want) {
		t.Logf("right-first JoinStream diverged from oracle (%d rows vs %d)", got.Len(), want.Len())
		return false
	}
	// Order unconstrained once the inputs interleave.
	wm, gm := multiset(want), multiset(runJoinStream(rng, left, right, false))
	if len(gm) != len(wm) {
		t.Logf("JoinStream: %d distinct rows, want %d", len(gm), len(wm))
		return false
	}
	for k, v := range wm {
		if gm[k] != v {
			t.Logf("JoinStream: row %s count %d, want %d", k, gm[k], v)
			return false
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
			if !checkJoinAgainstOracle(t, rng, left, right) {
				t.Errorf("layout %d, %d x %d rows: diverged from the nested-loop oracle", li, n, nr)
			}
		}
	}
}

// TestJoinStreamCancelMidJoin: cancelling the context while the join
// holds a joined batch nobody takes, both inputs still open, stops it and
// closes its output — the kill switch that lets LIMIT terminate a join
// pipeline early.
func TestJoinStreamCancelMidJoin(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	lv, rv := []string{"x", "y"}, []string{"y", "z"}
	left := make(chan *match.Bindings)
	right := make(chan *match.Bindings)
	out := make(chan *match.Bindings)
	done := make(chan struct{})
	go func() {
		JoinStream(ctx, lv, rv, left, right, out)
		close(done)
	}()
	// A matching pair, then cancel without reading the output or closing
	// the inputs: only the kill switch can stop the join.
	left <- &match.Bindings{Vars: lv, Rows: []rdf.ID{1, 2, 3, 4}}
	right <- &match.Bindings{Vars: rv, Rows: []rdf.ID{2, 9}}
	cancel()
	<-done
	if _, ok := <-out; ok {
		t.Fatal("a batch came out of a join nobody was reading")
	}
}
