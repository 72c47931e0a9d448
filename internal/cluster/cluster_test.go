package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

func TestPlaceAndEval(t *testing.T) {
	c := New(2, 2)
	g := rdf.NewGraph(nil)
	g.AddTerms(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b"))
	g.AddTerms(rdf.NewIRI("c"), rdf.NewIRI("p"), rdf.NewIRI("d"))
	if err := c.Place(1, 7, g); err != nil {
		t.Fatalf("Place: %v", err)
	}
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <p> ?y . }`)
	b, err := c.Eval(context.Background(), EvalRequest{SiteID: 1, FragIDs: []int{7}, Query: q})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if b.Len() != 2 {
		t.Fatalf("rows = %d, want 2", b.Len())
	}
	msgs, bytes := c.Net.Snapshot()
	if msgs != 2 {
		t.Errorf("messages = %d, want 2 (request+response)", msgs)
	}
	if bytes <= 0 {
		t.Errorf("bytes = %d", bytes)
	}
}

func TestEvalErrors(t *testing.T) {
	c := New(1, 1)
	d := rdf.NewDict()
	q := sparql.MustParse(d, `SELECT ?x WHERE { ?x <p> ?y . }`)
	if _, err := c.Eval(context.Background(), EvalRequest{SiteID: 5, Query: q}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := c.Eval(context.Background(), EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: q}); err == nil {
		t.Error("missing fragment accepted")
	}
	if err := c.Place(9, 0, rdf.NewGraph(d)); err == nil {
		t.Error("Place out of range accepted")
	}
}

// TestLatencyDelaysEachMessage: with a simulated link delay a call pays
// it on the request and on its response, and a context that ends
// mid-call ends the call with the context's error.
func TestLatencyDelaysEachMessage(t *testing.T) {
	c, q, _ := chaosCluster(t)
	const delay = 5 * time.Millisecond
	c.Latency = Delay{PerMessage: delay}
	req := EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: q}
	start := time.Now()
	b, err := c.Eval(context.Background(), req)
	if err != nil || b.Len() != 2 {
		t.Fatalf("Eval under latency: %v rows, err %v; want 2 rows", b, err)
	}
	if el := time.Since(start); el < 2*delay {
		t.Errorf("Eval took %v, want at least a request and a response delay (%v)", el, 2*delay)
	}

	// Cancelled in the sink of the first of two batches: the call ends
	// with the context's error and delivers no second batch.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	err = c.EvalStream(ctx, req, 1, func(b *match.Bindings) error {
		batches++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) || batches != 1 {
		t.Errorf("EvalStream cancelled in its sink: err %v after %d batches, want context.Canceled after 1", err, batches)
	}
	// An ended context fails the request before the site does any work.
	if _, err := c.Eval(ctx, req); !errors.Is(err, context.Canceled) {
		t.Errorf("Eval with an ended context = %v, want context.Canceled", err)
	}
}

// TestEvalRequestDeadline: a request's Deadline cuts what the site waits
// for under a context that has none — a simulated transfer, a worker
// while the site is busy — and fails the call once its graph is done.
func TestEvalRequestDeadline(t *testing.T) {
	c, q, _ := chaosCluster(t)
	sink := func(b *match.Bindings) error { b.Release(); return nil }
	within := func(what string, limit time.Duration, call func() error) {
		t.Helper()
		start := time.Now()
		if err := call(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want DeadlineExceeded", what, err)
		}
		if el := time.Since(start); el > limit {
			t.Errorf("%s: returned after %v, want within %v", what, el, limit)
		}
	}
	req := func(d time.Duration) EvalRequest {
		return EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: q, Deadline: time.Now().Add(d)}
	}

	c.Latency = Delay{PerMessage: time.Minute}
	within("a transfer past the deadline", 5*time.Second, func() error {
		return c.EvalStream(context.Background(), req(20*time.Millisecond), 1, sink)
	})
	c.Latency = Delay{}

	s := c.Sites[0]
	for range cap(s.sem) {
		s.sem <- struct{}{}
	}
	within("a wait for a busy site's worker", 5*time.Second, func() error {
		return c.EvalStream(context.Background(), req(20*time.Millisecond), 1, sink)
	})
	for range cap(s.sem) {
		<-s.sem
	}

	within("an evaluation that ends past its deadline", 5*time.Second, func() error {
		_, err := c.Eval(context.Background(), req(-time.Millisecond))
		return err
	})
}

func TestEvalDedupAcrossFragments(t *testing.T) {
	c := New(1, 1)
	d := rdf.NewDict()
	g1 := rdf.NewGraph(d)
	g1.AddTerms(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b"))
	g2 := rdf.NewGraph(d)
	g2.AddTerms(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b")) // overlap
	g2.AddTerms(rdf.NewIRI("x"), rdf.NewIRI("p"), rdf.NewIRI("y"))
	c.Place(0, 1, g1)
	c.Place(0, 2, g2)
	q := sparql.MustParse(d, `SELECT * WHERE { ?s <p> ?o . }`)
	b, err := c.Eval(context.Background(), EvalRequest{SiteID: 0, FragIDs: []int{1, 2}, Query: q})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if b.Len() != 2 {
		t.Fatalf("rows = %d, want 2 after dedup", b.Len())
	}
}

// TestSiteEvaluatesEachGraphOnce: fragments that share their site's graph
// resolve to it once, so a request naming several of them streams each
// match of the graph once, and a request naming a fragment of another
// graph at the site as well streams that graph's matches after it.
func TestSiteEvaluatesEachGraphOnce(t *testing.T) {
	c := New(1, 1)
	d := rdf.NewDict()
	site, cold := rdf.NewGraph(d), rdf.NewGraph(d)
	for i := range 5 {
		site.AddTerms(rdf.NewIRI(fmt.Sprint("s", i)), rdf.NewIRI("p"), rdf.NewIRI("o"))
	}
	cold.AddTerms(rdf.NewIRI("c"), rdf.NewIRI("p"), rdf.NewIRI("o"))
	for id, g := range map[int]*rdf.Graph{1: site, 2: site, 3: site, 4: cold} {
		if err := c.Place(0, id, g); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	q := sparql.MustParse(d, `SELECT ?x WHERE { ?x <p> ?o . }`)
	for _, tc := range []struct {
		frags []int
		rows  int
	}{{[]int{1}, 5}, {[]int{3, 1, 2}, 5}, {[]int{2, 4, 1}, 6}, {[]int{4}, 1}} {
		streamed := 0
		req := EvalRequest{SiteID: 0, FragIDs: tc.frags, Query: q}
		if err := c.EvalStream(context.Background(), req, 2, func(b *match.Bindings) error {
			streamed += b.Len()
			return nil
		}); err != nil {
			t.Fatalf("EvalStream %v: %v", tc.frags, err)
		}
		if streamed != tc.rows {
			t.Errorf("fragments %v: %d rows streamed, want %d", tc.frags, streamed, tc.rows)
		}
	}
}

func TestEvalConcurrentSafety(t *testing.T) {
	c := New(4, 2)
	d := rdf.NewDict()
	g := rdf.NewGraph(d)
	for i := 0; i < 50; i++ {
		g.AddTerms(rdf.NewIRI(string(rune('a'+i%26))), rdf.NewIRI("p"), rdf.NewIRI("o"))
	}
	for s := 0; s < 4; s++ {
		c.Place(s, s, g)
	}
	q := sparql.MustParse(d, `SELECT ?x WHERE { ?x <p> ?o . }`)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Eval(context.Background(), EvalRequest{SiteID: i % 4, FragIDs: []int{i % 4}, Query: q}); err != nil {
				t.Errorf("Eval: %v", err)
			}
		}(i)
	}
	wg.Wait()
}

func mkBindings(vars []string, rows ...[]rdf.ID) *match.Bindings { return table(vars, rows...) }

func TestHashJoinShared(t *testing.T) {
	l := mkBindings([]string{"x", "y"}, []rdf.ID{1, 2}, []rdf.ID{3, 4})
	r := mkBindings([]string{"y", "z"}, []rdf.ID{2, 9}, []rdf.ID{2, 8}, []rdf.ID{5, 7})
	j := HashJoin(l, r)
	if len(j.Vars) != 3 || j.Vars[2] != "z" {
		t.Fatalf("vars = %v", j.Vars)
	}
	if j.Len() != 2 {
		t.Fatalf("rows = %d, want 2", j.Len())
	}
	for _, row := range tableRows(j) {
		if row[0] != 1 || row[1] != 2 {
			t.Errorf("unexpected row %v", row)
		}
	}
}

func TestHashJoinCartesian(t *testing.T) {
	l := mkBindings([]string{"a"}, []rdf.ID{1}, []rdf.ID{2})
	r := mkBindings([]string{"b"}, []rdf.ID{3}, []rdf.ID{4})
	j := HashJoin(l, r)
	if j.Len() != 4 {
		t.Fatalf("cartesian rows = %d, want 4", j.Len())
	}
}

func TestHashJoinEmpty(t *testing.T) {
	l := mkBindings([]string{"a"})
	r := mkBindings([]string{"a"}, []rdf.ID{1})
	if j := HashJoin(l, r); j.Len() != 0 {
		t.Errorf("join with empty side produced %d rows", j.Len())
	}
}

func TestProject(t *testing.T) {
	b := mkBindings([]string{"x", "y"}, []rdf.ID{1, 9}, []rdf.ID{1, 8}, []rdf.ID{2, 7})
	p := Project(b, []string{"x"})
	if len(p.Vars) != 1 || p.Vars[0] != "x" {
		t.Fatalf("vars = %v", p.Vars)
	}
	if p.Len() != 2 {
		t.Fatalf("projected rows = %d, want 2 (dedup)", p.Len())
	}
	// Projecting onto an unknown var keeps known ones only.
	p2 := Project(b, []string{"z", "y"})
	if len(p2.Vars) != 1 || p2.Vars[0] != "y" {
		t.Errorf("vars = %v", p2.Vars)
	}
}
