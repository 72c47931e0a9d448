package cluster

// The join oracle test. One randomized corpus of binding-table pairs —
// spanning shared-variable layouts (one shared, reordered multi-shared,
// all shared, Cartesian, five shared columns, a side or both without
// variables), key distributions (uniform, heavily skewed, near-unique)
// and empty sides — drives both join operators against a nested-loop
// oracle:
//
//   - HashJoin is byte-identical to the oracle (exact rows, exact order);
//   - a Joiner emits exactly the oracle's row multiset at every batch
//     size, interleaving of its producers' pushes and order of the
//     inputs' closes, and so does a chain of two;
//   - a Joiner pushed its whole right stream before the first left batch
//     is byte-identical to the oracle too: emit order = insertion order.
//
// Run under -race in CI.

import (
	"errors"
	"fmt"
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

// rightFirst lists the steps that push right whole, then left, in
// batches of random sizes, then close the two in a random order.
func rightFirst(rng *rand.Rand, left, right *match.Bindings) []step {
	steps := slices.Concat(pushes(false, batchesOf(right, 1+rng.Intn(16))), pushes(true, batchesOf(left, 1+rng.Intn(16))))
	if rng.Intn(2) == 0 {
		i := slices.Index(steps, step{false, nil})
		steps = append(slices.Delete(steps, i, i+1), step{false, nil})
	}
	return steps
}

// closeFirst lists the steps that push first's batches into its input
// interleaved with the first half of second's into the other, then close
// first's input, then push the rest of second's — which the join only
// probes once it has seen that close — and close second's.
func closeFirst(firstLeft bool, first, second []*match.Bindings) []step {
	early, late := second[:len(second)/2], second[len(second)/2:]
	var steps []step
	for i := 0; i < max(len(first), len(early)); i++ {
		if i < len(first) {
			steps = append(steps, step{firstLeft, first[i]})
		}
		if i < len(early) {
			steps = append(steps, step{!firstLeft, early[i]})
		}
	}
	steps = append(steps, step{firstLeft, nil})
	return append(steps, pushes(!firstLeft, late)...)
}

// sameMultiset reports whether got holds want's rows, each as often.
func sameMultiset(t *testing.T, name string, want, got *match.Bindings) bool {
	t.Helper()
	wm, gm := multiset(want), multiset(got)
	if len(gm) != len(wm) {
		t.Logf("%s: %d distinct rows, want %d", name, len(gm), len(wm))
		return false
	}
	for k, v := range wm {
		if gm[k] != v {
			t.Logf("%s: row %s count %d, want %d", name, k, gm[k], v)
			return false
		}
	}
	return true
}

// TestJoinEquivalenceProperty: HashJoin ≡ Joiner ≡ nested-loop oracle
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
// right-first Joiner (exact rows, exact order), and through a Joiner
// pushed to by two producers at once and in each explicit close order
// (same row multiset): left closes first, right closes first, both close
// once every batch is in — each side one batch of its whole table, as wide
// as it is — and a side closes first having sent no rows, or only empty
// batches, leaving the other side's rows nothing to match.
func checkJoinAgainstOracle(t *testing.T, rng *rand.Rand, left, right *match.Bindings) bool {
	t.Helper()
	want := nestedLoopOracle(left, right)
	if got := HashJoin(left, right); !slices.Equal(got.Vars, want.Vars) || !tablesExactEqual(got, want) {
		t.Logf("HashJoin diverged from oracle (%d rows vs %d)", got.Len(), want.Len())
		return false
	}
	lv, rv := left.Vars, right.Vars
	if got := joinOf(t, lv, rv, rightFirst(rng, left, right)); !slices.Equal(got.Vars, want.Vars) || !tablesExactEqual(got, want) {
		t.Logf("right-first Joiner diverged from oracle (%d rows vs %d)", got.Len(), want.Len())
		return false
	}
	// Each join gets batches of its own: it hands back what it receives.
	lsize, rsize := 1+rng.Intn(16), 1+rng.Intn(16)
	lb, rb := func() []*match.Bindings { return batchesOf(left, lsize) }, func() []*match.Bindings { return batchesOf(right, rsize) }
	// Order unconstrained once the producers run concurrently.
	c := &collector{}
	j := NewJoiner(lv, rv, c)
	pushConcurrently(t, rng, []input{{j, true, lb()}, {j, false, rb()}})
	if !sameMultiset(t, "concurrent producers", want, c.table(want.Vars)) {
		return false
	}
	if !sameMultiset(t, "left closes first", want, joinOf(t, lv, rv, closeFirst(true, lb(), rb()))) {
		return false
	}
	if !sameMultiset(t, "right closes first", want, joinOf(t, lv, rv, closeFirst(false, rb(), lb()))) {
		return false
	}
	whole := func(b *match.Bindings) []*match.Bindings { return batchesOf(b, max(1, b.Len())) }
	steps := slices.Concat(pushes(true, whole(left)), pushes(false, whole(right)))
	if i := slices.Index(steps, step{true, nil}); i >= 0 {
		steps = append(slices.Delete(steps, i, i+1), step{true, nil}) // both close once every batch is in
	}
	if !sameMultiset(t, "both whole", want, joinOf(t, lv, rv, steps)) {
		return false
	}
	empties := func(vars []string) []*match.Bindings {
		return []*match.Bindings{match.NewBindings(vars, nil, 0), match.NewBindings(vars, nil, 0)}
	}
	for _, sent := range [][2][]*match.Bindings{{nil, nil}, {empties(lv), empties(rv)}} {
		if got := joinOf(t, lv, rv, closeFirst(true, sent[0], rb())); got.Len() != 0 {
			t.Logf("left closed with %d empty batches: %d rows joined", len(sent[0]), got.Len())
			return false
		}
		if got := joinOf(t, lv, rv, closeFirst(false, sent[1], lb())); got.Len() != 0 {
			t.Logf("right closed with %d empty batches: %d rows joined", len(sent[1]), got.Len())
			return false
		}
	}
	return true
}

// TestJoinAcrossChunkBoundaries drives table sizes around and well past
// the chunk boundaries of the join's adopted rows and chain links — a
// HashJoin block and a queued whole-table batch of more than chunkRows
// rows span several chunks — and past several doublings of its slot
// table, through every layout — Cartesian, five-column keys and sides
// without variables included — against the oracle.
func TestJoinAcrossChunkBoundaries(t *testing.T) {
	sizes := []int{1, 17, chunkRows - 1, chunkRows, chunkRows + 1, 2*chunkRows + 1, 16*chunkRows + 1}
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

// TestJoinStreamCancelMidJoin: in a chain of two joiners, a refusal at the
// chain's end comes back out of a push into the first stage's input,
// through the middle stage, and out of every later push that reaches the
// end; the refused rows are handed back, the chain's end is closed once
// when every input has closed, and every input batch is handed back.
func TestJoinStreamCancelMidJoin(t *testing.T) {
	stop := errors.New("stop")
	av, bv, cv := []string{"x", "y"}, []string{"y", "z"}, []string{"z", "w"}
	end := &collector{refuse: stop}
	second := NewJoiner(JoinVars(av, bv), cv, end)
	first := NewJoiner(av, bv, second)
	a := batchesOf(match.NewBindings(av, []rdf.ID{1, 2, 3, 2}, 2), 1)
	b := batchesOf(match.NewBindings(bv, []rdf.ID{2, 5}, 1), 1)
	c := batchesOf(match.NewBindings(cv, []rdf.ID{5, 8}, 1), 1)
	for _, s := range []struct {
		j       *Joiner
		left    bool
		b       *match.Bindings
		refused bool
	}{
		{second, false, c[0], false}, // nothing to join yet
		{first, false, b[0], false},  // nothing to join yet
		{first, true, a[0], true},    // joins through both stages: refused at the end
		{first, true, a[1], true},    // so is the next row that gets there
	} {
		if err := s.j.Push(s.b, s.left); errors.Is(err, stop) != s.refused {
			t.Fatalf("push: err %v, want refused %v", err, s.refused)
		}
	}
	second.Close(false)
	first.Close(false)
	if end.closes != 0 {
		t.Fatal("the chain's end closed while an input was still open")
	}
	first.Close(true)
	if end.closes != 1 || len(end.kept) != 0 {
		t.Fatalf("the chain's end closed %d times and kept %d batches, want once and none", end.closes, len(end.kept))
	}
	for _, in := range slices.Concat(a, b, c) {
		if in.Len() != 0 {
			t.Fatalf("an input batch holds %d rows once every input closed, want none", in.Len())
		}
	}
}

// TestJoinChainProperty: two producers push random splits of the inputs
// of a chain of one to three joiners, each in a random interleaving of its
// own, and close each input at a random point after its last push — an
// empty input may close before any row arrives. The chain's output must
// be the row multiset of HashJoin applied down the chain, closed once.
func TestJoinChainProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stages := 1 + rng.Intn(3)
		cartesian := rng.Intn(stages + 2) // a stage sharing nothing, if any
		tables := make([]*match.Bindings, stages+1)
		for i := range tables {
			vars := []string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)}
			if i == cartesian {
				vars = []string{fmt.Sprintf("c%d", i)}
			}
			n := rng.Intn(12)
			if rng.Intn(6) == 0 {
				n = 0
			}
			tables[i] = genJoinTable(rng, vars, n, rng.Intn(2))
		}
		// The chain, back to front: stage k joins the running result
		// with input k, and layouts[k] is the running result after it.
		want, layouts := tables[0], make([][]string, stages+1)
		layouts[0] = tables[0].Vars
		for k := 1; k <= stages; k++ {
			want, layouts[k] = HashJoin(want, tables[k]), JoinVars(layouts[k-1], tables[k].Vars)
		}
		end := &collector{}
		inputs := make([]input, stages+1)
		var next Stage = end
		for k := stages; k > 0; k-- {
			j := NewJoiner(layouts[k-1], tables[k].Vars, next)
			inputs[k] = input{j, false, batchesOf(tables[k], 1+rng.Intn(8))}
			next = j
		}
		inputs[0] = input{next, true, batchesOf(tables[0], 1+rng.Intn(8))}
		pushConcurrently(t, rng, inputs)
		if end.closes != 1 {
			t.Logf("seed %d: the chain's end closed %d times, want once", seed, end.closes)
			return false
		}
		if !sameMultiset(t, fmt.Sprintf("%d-stage chain", stages), want, end.table(want.Vars)) {
			t.Logf("seed %d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
