package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// batchesOf cuts a table into batches of n rows over its own array.
func batchesOf(t *match.Bindings, n int) []*match.Bindings {
	var out []*match.Bindings
	w := len(t.Vars)
	for i := 0; i < t.Len(); i += n {
		j := min(i+n, t.Len())
		out = append(out, match.NewBindings(t.Vars, t.Rows[i*w:j*w:j*w], j-i))
	}
	return out
}

// sendBatches splits a table into batches of n rows and streams them.
func sendBatches(ch chan *match.Bindings, t *match.Bindings, n int) {
	defer close(ch)
	for _, b := range batchesOf(t, n) {
		ch <- b
	}
}

func collect(ch <-chan *match.Bindings) *match.Bindings {
	var out *match.Bindings
	for b := range ch {
		if out == nil {
			out = &match.Bindings{Vars: b.Vars}
		}
		out.Rows = append(out.Rows, b.Rows...)
		out.Nullary += b.Nullary
	}
	return out
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

// TestJoinStreamMatchesHashJoin cross-checks the pipelined join against
// the blocking HashJoin on randomized inputs, across shared-variable
// layouts including the Cartesian case.
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

			left := make(chan *match.Bindings, 2)
			right := make(chan *match.Bindings, 2)
			out := make(chan *match.Bindings, 2)
			go sendBatches(left, l, 3)
			go sendBatches(right, r, 5)
			go JoinStream(context.Background(), tc.lv, tc.rv, left, right, out)
			got := collect(out)

			wm, gm := multiset(want), multiset(got)
			if len(wm) != len(gm) {
				t.Fatalf("vars %v⋈%v trial %d: %d distinct rows, want %d", tc.lv, tc.rv, trial, len(gm), len(wm))
			}
			for k, v := range wm {
				if gm[k] != v {
					t.Fatalf("vars %v⋈%v trial %d: row %s count %d, want %d", tc.lv, tc.rv, trial, k, gm[k], v)
				}
			}
			if got != nil {
				wantVars := JoinVars(tc.lv, tc.rv)
				for i, v := range wantVars {
					if got.Vars[i] != v {
						t.Fatalf("output vars %v, want %v", got.Vars, wantVars)
					}
				}
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

// TestJoinStreamCancel verifies a cancelled context stops the join and
// closes its output.
func TestJoinStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan *match.Bindings)
	right := make(chan *match.Bindings)
	out := make(chan *match.Bindings)
	done := make(chan struct{})
	go func() {
		JoinStream(ctx, []string{"x"}, []string{"x"}, left, right, out)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("JoinStream did not exit after cancel")
	}
	if _, ok := <-out; ok {
		t.Fatal("out not closed after cancel")
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
