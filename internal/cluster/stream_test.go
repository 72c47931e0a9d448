package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// batchesOf cuts a table into batches of n rows, each a copy in an array
// of match's free list, as a site's batches are: the join a batch is sent
// to hands it back, so a batch goes to one join only.
func batchesOf(t *match.Bindings, n int) []*match.Bindings {
	var out []*match.Bindings
	w := len(t.Vars)
	for i := 0; i < t.Len(); i += n {
		j := min(i+n, t.Len())
		out = append(out, match.Recyclable(t.Vars, append(match.TakeRows((j-i)*w), t.Rows[i*w:j*w]...), j-i))
	}
	return out
}

// collector is the stage at the end of a test's join chain: it keeps
// every batch pushed to it, in the order they came, and counts the closes
// of its input. With refuse set it refuses every push with it instead,
// handing the batch back.
type collector struct {
	mu     sync.Mutex
	kept   []*match.Bindings
	closes int
	refuse error
}

func (c *collector) Push(b *match.Bindings, _ bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refuse != nil {
		b.Release()
		return c.refuse
	}
	c.kept = append(c.kept, b)
	return nil
}

func (c *collector) Close(bool) {
	c.mu.Lock()
	c.closes++
	c.mu.Unlock()
}

// table returns the rows pushed to c, in the order they came, as one
// table over vars.
func (c *collector) table(vars []string) *match.Bindings {
	out := &match.Bindings{Vars: vars}
	for _, b := range c.kept {
		out.Rows = append(out.Rows, b.Rows...)
		out.Nullary += b.Nullary
	}
	return out
}

// step is one move of a join's producers: push a batch into one input
// or, with a nil batch, close it.
type step struct {
	left bool
	b    *match.Bindings
}

// pushes lists the steps that push bs into one input, then close it.
func pushes(left bool, bs []*match.Bindings) []step {
	out := make([]step, 0, len(bs)+1)
	for _, b := range bs {
		out = append(out, step{left, b})
	}
	return append(out, step{left, nil})
}

// joinOf takes steps through a Joiner of lv with rv on one goroutine, in
// order, and returns the rows it emitted, in emission order. Once both
// inputs have closed, the joiner must have closed its output once.
func joinOf(t *testing.T, lv, rv []string, steps []step) *match.Bindings {
	t.Helper()
	c := &collector{}
	j := NewJoiner(lv, rv, c)
	for _, s := range steps {
		if s.b == nil {
			j.Close(s.left)
		} else if err := j.Push(s.b, s.left); err != nil {
			t.Fatalf("push refused: %v", err)
		}
	}
	if c.closes != 1 {
		t.Fatalf("the joiner closed its output %d times, want once", c.closes)
	}
	return c.table(JoinVars(lv, rv))
}

// input is one input of a chain of joiners: the stage and side its
// batches go to, and the batches.
type input struct {
	stage   Stage
	left    bool
	batches []*match.Bindings
}

// pushConcurrently has two goroutines push random splits of every input's
// batches, each in a random interleaving of its own share, and closes each
// input at a random point after its last push: each goroutine marks its
// share of an input done at a random later step of its own, and the
// second mark closes the input. An input without batches may thus close
// before any row of the others arrives. It returns once both goroutines
// have finished.
func pushConcurrently(t *testing.T, rng *rand.Rand, inputs []input) {
	t.Helper()
	type move struct {
		in int
		b  *match.Bindings // nil: this goroutine's share of input in is done
	}
	var plans [2][]move
	for i, in := range inputs {
		var share [2][]move
		for _, b := range in.batches {
			g := rng.Intn(2)
			share[g] = append(share[g], move{i, b})
		}
		for g := range plans {
			// Merge this input's share into the plan at random positions,
			// in order, and mark it done at a random point after its last
			// push.
			plan, last := plans[g], -1
			for _, m := range share[g] {
				at := last + 1 + rng.Intn(len(plan)-last)
				plan = slices.Insert(plan, at, m)
				last = at
			}
			at := last + 1 + rng.Intn(len(plan)-last)
			plans[g] = slices.Insert(plan, at, move{i, nil})
		}
	}
	pending := make([]atomic.Int32, len(inputs))
	for i := range pending {
		pending[i].Store(2)
	}
	var wg sync.WaitGroup
	for _, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range plan {
				in := inputs[m.in]
				if m.b != nil {
					if err := in.stage.Push(m.b, in.left); err != nil {
						t.Errorf("push refused: %v", err)
					}
				} else if pending[m.in].Add(-1) == 0 {
					in.stage.Close(in.left)
				}
			}
		}()
	}
	wg.Wait()
}

func multiset(b *match.Bindings) map[string]int {
	m := map[string]int{}
	if b == nil {
		return m
	}
	for _, r := range tableRows(b) {
		m[fmt.Sprint(r)]++
	}
	return m
}

// TestJoinStreamMatchesHashJoin cross-checks the pipelined join, pushed
// to by two producers at once, against the blocking HashJoin on
// randomized inputs, across shared-variable layouts including the
// Cartesian case.
func TestJoinStreamMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		lv, rv []string
	}{
		{[]string{"x", "y"}, []string{"y", "z"}},           // one shared
		{[]string{"x", "y"}, []string{"x", "y"}},           // all shared
		{[]string{"x"}, []string{"z"}},                     // Cartesian
		{[]string{"a", "b", "c"}, []string{"c", "a", "d"}}, // two shared, reordered
	}
	for _, tc := range cases {
		for trial := 0; trial < 5; trial++ {
			nl, nr := rng.Intn(40), rng.Intn(40)
			l := &match.Bindings{Vars: tc.lv, Rows: randomRows(rng, nl, len(tc.lv))}
			r := &match.Bindings{Vars: tc.rv, Rows: randomRows(rng, nr, len(tc.rv))}
			want := HashJoin(l, r)

			c := &collector{}
			j := NewJoiner(tc.lv, tc.rv, c)
			pushConcurrently(t, rng, []input{{j, true, batchesOf(l, 3)}, {j, false, batchesOf(r, 5)}})
			got := c.table(JoinVars(tc.lv, tc.rv))

			wm, gm := multiset(want), multiset(got)
			if len(wm) != len(gm) {
				t.Fatalf("vars %v⋈%v trial %d: %d distinct rows, want %d", tc.lv, tc.rv, trial, len(gm), len(wm))
			}
			for k, v := range wm {
				if gm[k] != v {
					t.Fatalf("vars %v⋈%v trial %d: row %s count %d, want %d", tc.lv, tc.rv, trial, k, gm[k], v)
				}
			}
			if c.closes != 1 {
				t.Fatalf("vars %v⋈%v trial %d: the output closed %d times, want once", tc.lv, tc.rv, trial, c.closes)
			}
			for _, b := range c.kept {
				if wantVars := JoinVars(tc.lv, tc.rv); !slices.Equal(b.Vars, wantVars) {
					t.Fatalf("output vars %v, want %v", b.Vars, wantVars)
				}
			}
		}
	}
}

// TestJoinHandsBackItsInputs documents the contract a Joiner's inputs are
// under: a batch pushed to the join is the join's, and once both inputs
// have closed the batch is empty and its array back on match's free list —
// under the race detector overwritten with an ID no dictionary holds
// (rdf.NoID - 1), so that a caller still reading it reads an answer the
// oracles refuse.
func TestJoinHandsBackItsInputs(t *testing.T) {
	lv, rv := []string{"x", "y"}, []string{"y", "z"}
	l := batchesOf(match.NewBindings(lv, []rdf.ID{1, 2, 3, 4}, 2), 2)[0]
	r := batchesOf(match.NewBindings(rv, []rdf.ID{2, 9}, 1), 1)[0]
	arrays := map[string][]rdf.ID{"left": l.Rows, "right": r.Rows}
	got := joinOf(t, lv, rv, []step{{true, l}, {false, r}, {true, nil}, {false, nil}})
	if !slices.Equal(got.Rows, []rdf.ID{1, 2, 9}) {
		t.Fatalf("joined %v, want [1 2 9]", got.Rows)
	}
	if l.Len() != 0 || r.Len() != 0 {
		t.Fatalf("inputs hold %d and %d rows after both closed, want none", l.Len(), r.Len())
	}
	for side, rows := range arrays {
		for _, id := range rows {
			if poisoned := id == rdf.NoID-1; poisoned != raceOn {
				t.Fatalf("%s input's array reads %v after both inputs closed (race detector on: %v)", side, rows, raceOn)
			}
		}
	}
}

func randomRows(rng *rand.Rand, n, width int) []rdf.ID {
	rows := make([]rdf.ID, n*width)
	for i := range rows {
		rows[i] = rdf.ID(rng.Intn(6)) // small domain → plenty of join hits
	}
	return rows
}

// TestJoinStreamCancel: a stage that refuses a push stops the producer
// behind it — the error comes back out of the joiner's Push, the refused
// output batch is the stage's, and the joiner stays usable — and closing
// both inputs still closes the output once and hands every input back. A
// satisfied LIMIT stops a query's producers this way.
func TestJoinStreamCancel(t *testing.T) {
	stop := errors.New("stop")
	lv, rv := []string{"x", "y"}, []string{"y", "z"}
	c := &collector{refuse: stop}
	j := NewJoiner(lv, rv, c)
	l := batchesOf(match.NewBindings(lv, []rdf.ID{1, 2, 3, 4}, 2), 2)[0]
	r := batchesOf(match.NewBindings(rv, []rdf.ID{2, 9, 7, 7}, 2), 2)[0]
	if err := j.Push(l, true); err != nil {
		t.Fatalf("a push with nothing to join: %v", err)
	}
	if err := j.Push(r, false); !errors.Is(err, stop) {
		t.Fatalf("a push whose rows the next stage refused: err %v, want %v", err, stop)
	}
	j.Close(true)
	j.Close(false)
	if c.closes != 1 || len(c.kept) != 0 {
		t.Fatalf("output closed %d times and kept %d batches, want once and none", c.closes, len(c.kept))
	}
	if l.Len() != 0 || r.Len() != 0 {
		t.Fatalf("inputs hold %d and %d rows after both closed, want none", l.Len(), r.Len())
	}
}

// TestEvalStreamMatchesEval verifies the streamed batches union to
// exactly the Eval result.
func TestEvalStreamMatchesEval(t *testing.T) {
	c := New(2, 2)
	g := rdf.NewGraph(nil)
	for i := 0; i < 50; i++ {
		g.AddTerms(rdf.NewIRI(fmt.Sprintf("s%d", i)), rdf.NewIRI("p"), rdf.NewIRI(fmt.Sprintf("o%d", i%7)))
	}
	if err := c.Place(0, 1, g); err != nil {
		t.Fatalf("Place: %v", err)
	}
	q := sparql.MustParse(g.Dict, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	req := EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: q}

	want, err := c.Eval(context.Background(), req)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}

	var mu sync.Mutex
	got := &match.Bindings{}
	batches := 0
	err = c.EvalStream(context.Background(), req, 8, func(b *match.Bindings) error {
		mu.Lock()
		defer mu.Unlock()
		got.Vars = b.Vars
		got.Rows = append(got.Rows, b.Rows...)
		batches++
		return nil
	})
	if err != nil {
		t.Fatalf("EvalStream: %v", err)
	}
	if batches < 2 {
		t.Errorf("50 rows at batch size 8 arrived in %d batches; want several", batches)
	}
	got.Dedup()
	wm, gm := multiset(want), multiset(got)
	if len(wm) != len(gm) {
		t.Fatalf("EvalStream rows %d distinct, Eval %d", len(gm), len(wm))
	}
	for k := range wm {
		if gm[k] != wm[k] {
			t.Fatalf("row %s: stream count %d, eval count %d", k, gm[k], wm[k])
		}
	}
}
