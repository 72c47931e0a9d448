package exec_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/exec"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

// TestQueryCancellation verifies ctx cancellation aborts a distributed
// query promptly, even with simulated network latency in flight.
func TestQueryCancellation(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := cluster.New(4, 2)
	c.Latency = cluster.Delay{PerMessage: 50 * time.Millisecond}
	e, err := exec.New(c, env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}

	q := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . }`)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = e.QueryPrepared(ctx, q, prep)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryPrepared after cancel: err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("cancellation returned after %v; want prompt abort", el)
	}
}

// TestQueryDeadline verifies a context deadline surfaces as
// DeadlineExceeded.
func TestQueryDeadline(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := cluster.New(4, 2)
	c.Latency = cluster.Delay{PerMessage: 50 * time.Millisecond}
	e, err := exec.New(c, env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	q := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, _, err := e.QueryPrepared(ctx, q, prep); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryPrepared past deadline: err = %v, want DeadlineExceeded", err)
	}
}

// TestLimitPushdown verifies the streaming pipeline stops early for
// unordered LIMIT queries and still returns correct (distinct, subset)
// rows.
func TestLimitPushdown(t *testing.T) {
	e, env := newEngine(t, false)

	full := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	fullRes, _, err := e.Query(full)
	if err != nil {
		t.Fatalf("Query(full): %v", err)
	}
	if fullRes.Len() < 5 {
		t.Fatalf("need ≥5 base rows, got %d", fullRes.Len())
	}
	fullSet := map[string]bool{}
	for row := range slices.Chunk(fullRes.Rows, len(fullRes.Vars)) {
		fullSet[rowString(row)] = true
	}

	limited := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	limited.Limit = 3
	got, _, err := e.Query(limited)
	if err != nil {
		t.Fatalf("Query(limit 3): %v", err)
	}
	if got.Len() != 3 {
		t.Fatalf("limit 3 returned %d rows", got.Len())
	}
	seen := map[string]bool{}
	for r := range slices.Chunk(got.Rows, len(got.Vars)) {
		k := rowString(r)
		if seen[k] {
			t.Errorf("duplicate row %v under LIMIT", r)
		}
		seen[k] = true
		if !fullSet[k] {
			t.Errorf("row %v not in the unlimited result", r)
		}
	}

	// A limit larger than the result set returns everything.
	limited2 := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	limited2.Limit = fullRes.Len() + 100
	got2, _, err := e.Query(limited2)
	if err != nil {
		t.Fatalf("Query(big limit): %v", err)
	}
	if got2.Len() != fullRes.Len() {
		t.Errorf("limit > |result| returned %d rows, want %d", got2.Len(), fullRes.Len())
	}
}

// TestLimitPreservesOrderBy verifies ordered queries are NOT truncated by
// the pipeline (the caller sorts decoded terms first).
func TestLimitPreservesOrderBy(t *testing.T) {
	e, env := newEngine(t, false)
	q := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	full, _, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}

	ordered := sparql.MustParse(env.G.Dict, `SELECT ?x ?n WHERE { ?x <name> ?n . }`)
	ordered.OrderBy = []sparql.OrderKey{{Var: "n"}}
	ordered.Limit = 2
	got, _, err := e.Query(ordered)
	if err != nil {
		t.Fatalf("Query(ordered): %v", err)
	}
	if got.Len() != full.Len() {
		t.Errorf("ORDER BY + LIMIT pipeline returned %d rows, want all %d (caller truncates after sorting)",
			got.Len(), full.Len())
	}
}

// TestPreparedReuse verifies a cached plan answers repeated executions
// identically to fresh ones, including concurrently.
func TestPreparedReuse(t *testing.T) {
	e, env := newEngine(t, false)
	q := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . }`)
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	want, _, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, _, err := e.QueryPrepared(context.Background(), q, prep)
		if err != nil {
			t.Fatalf("QueryPrepared run %d: %v", i, err)
		}
		if !slices.Equal(got.Vars, want.Vars) || !slices.Equal(got.Rows, want.Rows) {
			t.Errorf("run %d: prepared result diverged (%d rows vs %d)", i, got.Len(), want.Len())
		}
	}
}

func rowString(r []rdf.ID) string {
	s := ""
	for _, id := range r {
		s += fmt.Sprintf("%d|", id)
	}
	return s
}

// TestSmallAnswerTotalAlloc pins what a three-row answer with one join
// stage allocates end to end. Nothing on the row path may pay for a
// fixed-size chunk up front: selective workloads are made of such
// queries, and one 16 KiB arena chunk (the streaming join's first, until
// it was sized from the batch's counted output) was two thirds of the
// 25 904 B this query used to cost. It measured 7 528 B (8 864 B while
// every row had a slice header), and the ceiling was that plus 10%. With
// the join pushed to by its producers, no goroutine or channel per
// subquery or stage and no cancellable context of its own, it measures
// 3 752 B (4 384 B under the race detector); the ceiling is the race
// figure plus 10%. The median of many runs, because pooled buffers come
// and go with the collector.
func TestSmallAnswerTotalAlloc(t *testing.T) {
	env, err := testenv.Build(testenv.Options{Persons: 12})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := exec.New(cluster.New(4, 2), env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	q := sparql.MustParse(env.G.Dict, `SELECT ?x ?n ?v WHERE { ?x <name> ?n . ?x <viaf> ?v . }`)
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	run := func() {
		got, stats, err := e.QueryPrepared(context.Background(), q, prep)
		if err != nil || got.Len() != 3 || stats.Subqueries != 2 {
			t.Fatalf("QueryPrepared: %d rows from %d subqueries, err %v; want 3 rows from 2", got.Len(), stats.Subqueries, err)
		}
	}
	run()
	perRun := make([]uint64, 101)
	var before, after runtime.MemStats
	for i := range perRun {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		perRun[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perRun)
	median := perRun[len(perRun)/2]
	t.Logf("median %d B", median)
	if median > 4800 {
		t.Errorf("a 3-row, one-join query typically allocates %d B, want <= 4800", median)
	}
}
