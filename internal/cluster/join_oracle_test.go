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
//     size, input interleaving and order of the inputs' closes;
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

// joinOf runs JoinStream over two inputs and collects the emitted rows in
// emission order.
func joinOf(lv, rv []string, left, right chan *match.Bindings) *match.Bindings {
	out := make(chan *match.Bindings, 4)
	go JoinStream(context.Background(), lv, rv, left, right, out)
	got := collect(out)
	if got == nil {
		got = &match.Bindings{Vars: JoinVars(lv, rv)}
	}
	return got
}

// runJoinStream feeds both tables through JoinStream in randomized batch
// sizes. With rightFirst the join has taken in the whole right table
// before the left one starts: the right channel is unbuffered and
// JoinStream probes a batch before it receives another, so the last right
// send returning means all of right is stored or about to be, ahead of any
// left batch.
func runJoinStream(rng *rand.Rand, left, right *match.Bindings, rightFirst bool) *match.Bindings {
	rbuf := 2
	if rightFirst {
		rbuf = 0
	}
	lch := make(chan *match.Bindings, 2)
	rch := make(chan *match.Bindings, rbuf)
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
	return joinOf(left.Vars, right.Vars, lch, rch)
}

// closeFirst feeds two inputs of a join from one goroutine over unbuffered
// channels, so the join receives the batches in the order sent: first's
// batches interleaved with the first half of second's, then first's close,
// then the rest of second's — which the join only probes once it has seen
// that close — and second's close.
func closeFirst(firstCh chan *match.Bindings, first []*match.Bindings, secondCh chan *match.Bindings, second []*match.Bindings) {
	early, late := second[:len(second)/2], second[len(second)/2:]
	for i := 0; i < max(len(first), len(early)); i++ {
		if i < len(first) {
			firstCh <- first[i]
		}
		if i < len(early) {
			secondCh <- early[i]
		}
	}
	close(firstCh)
	for _, b := range late {
		secondCh <- b
	}
	close(secondCh)
}

// queued returns a closed channel holding bs.
func queued(bs []*match.Bindings) chan *match.Bindings {
	ch := make(chan *match.Bindings, len(bs))
	for _, b := range bs {
		ch <- b
	}
	close(ch)
	return ch
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
// right-first JoinStream (exact rows, exact order), and through
// JoinStream under randomized interleaving and in each explicit close
// order (same row multiset): left closes first, right closes first, both
// close with every batch still queued — each side one batch of its whole
// table, as wide as it is — and a side closes first having sent no rows,
// or only empty batches, leaving the other side's rows nothing to match.
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
	if !sameMultiset(t, "JoinStream", want, runJoinStream(rng, left, right, false)) {
		return false
	}
	lv, rv := left.Vars, right.Vars
	lb, rb := batchesOf(left, 1+rng.Intn(16)), batchesOf(right, 1+rng.Intn(16))
	l, r := make(chan *match.Bindings), make(chan *match.Bindings)
	go closeFirst(l, lb, r, rb)
	if !sameMultiset(t, "left closes first", want, joinOf(lv, rv, l, r)) {
		return false
	}
	l, r = make(chan *match.Bindings), make(chan *match.Bindings)
	go closeFirst(r, rb, l, lb)
	if !sameMultiset(t, "right closes first", want, joinOf(lv, rv, l, r)) {
		return false
	}
	whole := func(b *match.Bindings) chan *match.Bindings { return queued(batchesOf(b, max(1, b.Len()))) }
	if !sameMultiset(t, "both queued", want, joinOf(lv, rv, whole(left), whole(right))) {
		return false
	}
	empties := func(vars []string) []*match.Bindings {
		return []*match.Bindings{match.NewBindings(vars, nil, 0), match.NewBindings(vars, nil, 0)}
	}
	for _, sent := range [][2][]*match.Bindings{{nil, nil}, {empties(lv), empties(rv)}} {
		l, r = make(chan *match.Bindings), make(chan *match.Bindings)
		go closeFirst(l, sent[0], r, rb)
		if got := joinOf(lv, rv, l, r); got.Len() != 0 {
			t.Logf("left closed with %d empty batches: %d rows joined", len(sent[0]), got.Len())
			return false
		}
		l, r = make(chan *match.Bindings), make(chan *match.Bindings)
		go closeFirst(r, sent[1], l, lb)
		if got := joinOf(lv, rv, l, r); got.Len() != 0 {
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
