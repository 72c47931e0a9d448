package match

import (
	"slices"
	"testing"
	"testing/quick"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// parallelOpts are the worker counts the equivalence tests sweep: a
// forced-parallel setting that exercises the morsel machinery even on a
// single-core test host, plus a skewed higher count.
var parallelOpts = []int{2, 4, 8}

// TestParallelFindEqualsSequentialQuick is the race-enabled equivalence
// property: for generated graphs and queries, parallel Find must produce
// exactly the sequential result — same matches, same order (the
// deterministic morsel-order merge) — and the projected bindings must
// agree under RowCompare sorting. Graphs are large enough that the
// parallel path actually engages (root runs past parallelMinRoot).
func TestParallelFindEqualsSequentialQuick(t *testing.T) {
	f := func(dataSeed, querySeed int64, freeze bool) bool {
		g := randomData(dataSeed, 400)
		if freeze {
			g.Freeze()
		}
		q := randomQuery(querySeed, 3)
		seq := Find(q, g.Snapshot(), Options{Parallelism: 1})
		for _, w := range parallelOpts {
			par := Find(q, g.Snapshot(), Options{Parallelism: w})
			if !matchesEqual(t, seq, par) {
				t.Logf("workers=%d: parallel Find diverged (seq %d matches, par %d)", w, len(seq), len(par))
				return false
			}
			// Cross-check the tabular form the join pipeline consumes.
			sb, pb := ToBindings(q, seq), ToBindings(q, par)
			sb.Dedup()
			pb.Dedup()
			if !slices.Equal(sb.Rows, pb.Rows) || sb.Len() != pb.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func matchesEqual(t *testing.T, a, b []Match) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if RowCompare(a[i].Vertex, b[i].Vertex) != 0 {
			return false
		}
		if len(a[i].Triples) != len(b[i].Triples) {
			return false
		}
		for j := range a[i].Triples {
			if a[i].Triples[j] != b[i].Triples[j] {
				return false
			}
		}
	}
	return true
}

// TestParallelCountAndMatchedGraphQuick: the morsel fan-out finds as
// many matches as Count counts and uses exactly MatchedGraph's triples —
// which for a tree pattern come from the reducer, not from a search.
func TestParallelCountAndMatchedGraphQuick(t *testing.T) {
	f := func(dataSeed, querySeed int64) bool {
		g := randomData(dataSeed, 300)
		q := randomQuery(querySeed, 3)
		wantCount := Count(q, g.Snapshot(), Options{})
		wantTris := MatchedGraph(q, g.Snapshot(), Options{}).Triples()
		for _, w := range parallelOpts {
			ms := Find(q, g.Snapshot(), Options{Parallelism: w})
			if len(ms) != wantCount {
				t.Logf("workers=%d: %d matches, Count = %d", w, len(ms), wantCount)
				return false
			}
			if !slices.Equal(usedTriples(ms), wantTris) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestParallelFindBatches: the parallel run delivers the sequential
// run's multiset of matches (compared sorted) and respects early
// termination from the sink.
func TestParallelFindBatches(t *testing.T) {
	g := randomData(7, 500)
	q := randomQuery(11, 3)
	collect := func(opts Options, size int) []Match {
		var out []Match
		FindBatches(q, g.Snapshot(), opts, size, func(ms []Match) bool {
			out = append(out, ms...)
			return true
		})
		return out
	}
	seq := collect(Options{Parallelism: 1}, 64)
	if len(seq) == 0 {
		t.Fatal("generated workload matched nothing; pick new seeds")
	}

	str := collect(Options{Parallelism: 4}, 64)
	if len(str) != len(seq) {
		t.Fatalf("streaming parallel FindBatches yielded %d matches, want %d", len(str), len(seq))
	}
	sortByVertex := func(ms []Match) {
		for i := 1; i < len(ms); i++ {
			for j := i; j > 0 && RowCompare(ms[j-1].Vertex, ms[j].Vertex) > 0; j-- {
				ms[j-1], ms[j] = ms[j], ms[j-1]
			}
		}
	}
	seqSorted := append([]Match(nil), seq...)
	strSorted := append([]Match(nil), str...)
	sortByVertex(seqSorted)
	sortByVertex(strSorted)
	for i := range seqSorted {
		if RowCompare(seqSorted[i].Vertex, strSorted[i].Vertex) != 0 {
			t.Fatalf("streaming parallel FindBatches content diverged at %d", i)
		}
	}

	// Early termination: a sink that refuses after the first batch must
	// stop the fan-out promptly and deliver no further batches.
	calls := 0
	FindBatches(q, g.Snapshot(), Options{Parallelism: 4}, 16, func(ms []Match) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("sink called %d times after refusing, want 1", calls)
	}
}

// TestParallelVertexFilter: the filter applies identically on the
// parallel path (it is called concurrently — the race detector covers
// the concurrency contract).
func TestParallelVertexFilter(t *testing.T) {
	g := randomData(3, 400)
	q := randomQuery(5, 3)
	filter := func(qv int, id rdf.ID) bool { return id%2 == 0 }
	want := Find(q, g.Snapshot(), Options{Parallelism: 1, VertexFilter: filter})
	got := Find(q, g.Snapshot(), Options{Parallelism: 4, VertexFilter: filter})
	if len(want) == 0 || !matchesEqual(t, got, want) {
		t.Errorf("filtered parallel Find: %d matches, the sequential %d", len(got), len(want))
	}
}

// TestParallelLimitFallsBackSequential: a Limit forces the sequential
// path, so limited runs keep the exact "first Limit matches in
// enumeration order" contract.
func TestParallelLimitFallsBackSequential(t *testing.T) {
	g := randomData(9, 400)
	q := randomQuery(13, 2)
	all := Find(q, g.Snapshot(), Options{Parallelism: 1})
	if len(all) < 4 {
		t.Skip("not enough matches for a limit test")
	}
	limited := Find(q, g.Snapshot(), Options{Parallelism: 8, Limit: 3})
	if len(limited) != 3 {
		t.Fatalf("limited Find returned %d matches, want 3", len(limited))
	}
	if !matchesEqual(t, all[:3], limited) {
		t.Error("limited Find did not return the first 3 sequential matches")
	}
}

// TestPlanParallelDeclines pins the fall-back conditions: tiny root
// runs, single-candidate roots, limits, and Parallelism 1 all decline
// the fan-out.
func TestPlanParallelDeclines(t *testing.T) {
	g := hubGraph(64, 8)
	g.Freeze()
	gsn := g.Snapshot()
	defer gsn.Close()
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
	if r := planParallel(q, gsn, Options{Parallelism: 1}, edgeOrder(q, gsn)); r != nil {
		t.Error("Parallelism 1 should decline the parallel plan")
	}
	if r := planParallel(q, gsn, Options{Parallelism: 4, Limit: 5}, edgeOrder(q, gsn)); r != nil {
		t.Error("Limit should decline the parallel plan")
	}
	small := hubGraph(8, 8)
	small.Freeze()
	ssn := small.Snapshot()
	defer ssn.Close()
	qs := sparql.MustParse(small.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
	if r := planParallel(qs, ssn, Options{Parallelism: 4}, edgeOrder(qs, ssn)); r != nil {
		t.Error("a root run below parallelMinRoot should decline the parallel plan")
	}
	big := hubGraph(1024, 8)
	big.Freeze()
	bsn := big.Snapshot()
	defer bsn.Close()
	qb := sparql.MustParse(big.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
	if r := planParallel(qb, bsn, Options{Parallelism: 4}, edgeOrder(qb, bsn)); r == nil {
		t.Error("a large root run with Parallelism 4 should plan a fan-out")
	}
}
