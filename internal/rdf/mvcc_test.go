package rdf

// Generation-lifecycle tests for the MVCC layer: a pinned snapshot must
// enumerate byte-identically to a CSR rebuilt from its own triples
// while a concurrent writer appends and compacts underneath it, retired
// generations must be forgotten once their last pinned snapshot drains,
// and a published multi-graph view must never expose a torn update
// batch. All of these run under -race in CI.

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// rebuiltSnapshot replays the snapshot's visible triples into a fresh
// frozen graph — the ground-truth enumeration for the pinned epoch.
func rebuiltSnapshot(ts []Triple) *Snapshot {
	rb := NewGraph(nil)
	for _, tr := range ts {
		rb.Add(tr)
	}
	rb.Freeze()
	return rb.Snapshot()
}

// equalRun compares two runs element-wise, treating nil and empty as
// the same: an absent vertex yields a nil run while a present vertex
// with no edges yields an empty arena subslice, and the API contract is
// about the enumerated elements, not the nil-ness of a zero-length run.
func equalRun[T any](a, b []T) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// sameEnumeration compares the full read API of two snapshots: the
// triple list, vertex and predicate sets, per-vertex adjacency in
// both directions and per-predicate runs must be byte-identical.
func sameEnumeration(t *testing.T, got, want *Snapshot) bool {
	t.Helper()
	if got.NumTriples() != want.NumTriples() {
		t.Logf("NumTriples: got %d, want %d", got.NumTriples(), want.NumTriples())
		return false
	}
	if !equalRun(got.Triples(), want.Triples()) {
		t.Log("Triples() diverged")
		return false
	}
	verts := want.Vertices()
	if !equalRun(got.Vertices(), verts) {
		t.Log("Vertices() diverged")
		return false
	}
	preds := want.Predicates()
	if !equalRun(got.Predicates(), preds) {
		t.Log("Predicates() diverged")
		return false
	}
	for _, v := range verts {
		if !equalRun(got.OutEdges(v), want.OutEdges(v)) {
			t.Logf("OutEdges(%d) diverged", v)
			return false
		}
		if !equalRun(got.InEdges(v), want.InEdges(v)) {
			t.Logf("InEdges(%d) diverged", v)
			return false
		}
	}
	for _, p := range preds {
		if !equalRun(got.ByPredicate(p), want.ByPredicate(p)) {
			t.Logf("ByPredicate(%d) diverged", p)
			return false
		}
	}
	return true
}

// TestSnapshotIsolationUnderConcurrentWriter pins a snapshot, then lets
// a writer run through multiple generations while a reader repeatedly
// re-reads the pinned view. Every enumeration must be byte-identical to
// a CSR rebuilt from the pinned triples — the "query results match a
// rebuilt-CSR oracle at the pinned epoch" acceptance property — and every
// run, degree, Has and Triples() what the naive set held at the pin;
// once the snapshot closes, the old generations it kept alive must be
// forgotten. Twice: pinned on a clean generation under a writer that
// only adds, and pinned inside a window that already holds tombstones
// under a writer that deletes as it adds, so that the pinned runs go on
// collecting ops on their own keys until a compaction retires them.
func TestSnapshotIsolationUnderConcurrentWriter(t *testing.T) {
	const nv, np = 40, 6
	for _, tc := range []struct {
		name    string
		deletes bool
	}{
		{"clean generation, adds", false},
		{"tombstone window, adds and deletes", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := distinct(randomTriples(17, 300, nv, np))
			g := graphOf(base)
			g.Freeze()
			g.SetAutoCompact(0.05) // compact early and often
			loaded := g.Compactions()
			ref := newNaive(base...)
			if tc.deletes {
				for i, tr := range randomTriples(23, 30, nv, np) {
					if g.Delete(base[i*5]) != ref.Delete(base[i*5]) || g.Add(tr) != ref.Add(tr) {
						t.Fatal("setup: graph and naive set disagree")
					}
				}
				if g.DeltaTombstones() == 0 || g.Compactions() != loaded {
					t.Fatalf("setup: %d tombstones pending, %d compactions since the load; want the tombstones still in the loaded generation's window", g.DeltaTombstones(), g.Compactions()-loaded)
				}
			}

			sn := g.Snapshot()
			oracle := rebuiltSnapshot(slices.Clone(ref.live))
			pinnedGen := sn.Generation()
			same := func() bool { return sameEnumeration(t, sn, oracle) && ref.readBy(t, sn) }

			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // writer: raw-ID ops so the shared Dict stays untouched
				defer wg.Done()
				defer done.Store(true)
				pool := slices.Clone(ref.live) // what a delete aims at: once there, maybe gone since
				for i, tr := range randomTriples(99, 2000, nv, np) {
					if tc.deletes && i%3 == 2 {
						g.Delete(pool[(i*31)%len(pool)])
						continue
					}
					g.Add(tr)
					pool = append(pool, tr)
				}
			}()
			go func() { // reader: the pinned view must never move
				defer wg.Done()
				for !done.Load() {
					if !same() {
						t.Error("pinned snapshot drifted from its oracles")
						return
					}
				}
			}()
			wg.Wait()

			if t.Failed() {
				return
			}
			if n := g.Compactions() - loaded; n < 2 {
				t.Fatalf("writer triggered %d compactions, want >= 2 (tighten AutoCompact)", n)
			}
			if cur := g.Snapshot(); cur.Generation() == pinnedGen {
				t.Error("generation never advanced despite compactions")
			} else {
				cur.Close()
			}
			// One last check after the dust settles, then drain the pin.
			if !same() {
				t.Error("pinned snapshot drifted after writer finished")
			}
			if live := g.LiveGenerations(); live < 2 {
				t.Errorf("LiveGenerations = %d while an old-generation snapshot is pinned, want >= 2", live)
			}
			sn.Close()
			sn.Close() // idempotent
			if live := g.LiveGenerations(); live != 1 {
				t.Errorf("LiveGenerations = %d after the last snapshot closed, want 1", live)
			}
			if pinned := g.PinnedSnapshots(); pinned != 0 {
				t.Errorf("PinnedSnapshots = %d after close, want 0", pinned)
			}
		})
	}
}

// TestGenerationDrainSoak hammers the lifecycle: a writer streams 1k
// raw-ID updates through aggressive auto-compaction while reader
// goroutines continuously open short-lived snapshots, enumerate a
// little, and close them. When everything drains the graph must be back
// to exactly one live generation and zero pinned snapshots — no retired
// generation may leak past its last reader.
func TestGenerationDrainSoak(t *testing.T) {
	const nv, np = 30, 5
	g := graphOf(randomTriples(5, 200, nv, np))
	g.Freeze()
	g.SetAutoCompact(0.02)

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for _, tr := range randomTriples(7, 1000, nv, np) {
			g.Add(tr)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				sn := g.Snapshot()
				n := sn.NumTriples()
				if got := len(sn.Triples()); got != n {
					t.Errorf("reader %d: NumTriples %d != len(Triples) %d", r, n, got)
				}
				_ = sn.OutEdges(ID(i % nv))
				sn.Close()
			}
		}(r)
	}
	wg.Wait()

	if g.Compactions() < 2 {
		t.Fatalf("soak triggered %d compactions, want >= 2", g.Compactions())
	}
	// A final open/close forces a prune pass after the last racy close.
	last := g.Snapshot()
	last.Close()
	if live := g.LiveGenerations(); live != 1 {
		t.Errorf("LiveGenerations = %d after soak drained, want 1 (retired generations leaked)", live)
	}
	if pinned := g.PinnedSnapshots(); pinned != 0 {
		t.Errorf("PinnedSnapshots = %d after soak drained, want 0", pinned)
	}
}

// TestViewBatchAtomicity drives a ViewSource over two graphs the way
// serve drives the deployment: the writer applies a batch to both
// graphs, then Publishes; readers Acquire and must always observe the
// two graphs at the same batch boundary (never a torn batch), with each
// graph's snapshot byte-identical to its rebuilt-CSR oracle.
func TestViewBatchAtomicity(t *testing.T) {
	const nv, np = 20, 4
	g1 := graphOf(randomTriples(1, 100, nv, np))
	g2 := graphOf(randomTriples(2, 100, nv, np))
	g1.Freeze()
	g2.Freeze()
	g1.SetAutoCompact(0.05)
	g2.SetAutoCompact(0.05)
	base1, base2 := g1.NumTriples(), g2.NumTriples()

	vs := NewViewSource()
	vs.Register(g1)
	vs.Register(g2)

	// Each batch adds a brand-new (never duplicate) triple to each graph,
	// so visible-count difference is exactly the batch skew.
	const batches = 400
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < batches; i++ {
			p := ID(nv + i%np)
			g1.Add(Triple{S: ID(1000 + i), P: p, O: ID(i % nv)})
			g2.Add(Triple{S: ID(1000 + i), P: p, O: ID(i % nv)})
			vs.Publish()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				h := vs.Acquire()
				s1, s2 := h.Snap(g1), h.Snap(g2)
				if d1, d2 := s1.NumTriples()-base1, s2.NumTriples()-base2; d1 != d2 {
					t.Errorf("reader %d: torn batch — view shows %d batches on g1 but %d on g2", r, d1, d2)
					h.Close()
					return
				}
				if i%32 == 0 { // full oracle check, occasionally (it rebuilds a CSR)
					or := rebuiltSnapshot(append([]Triple(nil), s1.Triples()...))
					if !sameEnumeration(t, s1, or) {
						t.Errorf("reader %d: view snapshot diverged from rebuilt-CSR oracle", r)
						h.Close()
						return
					}
				}
				h.Close()
			}
		}(r)
	}
	wg.Wait()

	if t.Failed() {
		return
	}
	if g1.Compactions() < 2 || g2.Compactions() < 2 {
		t.Fatalf("compactions = %d/%d, want >= 2 on both graphs", g1.Compactions(), g2.Compactions())
	}
	vs.Publish() // final cut; old views are unreferenced now
	h := vs.Acquire()
	if n := h.Snap(g1).NumTriples(); n != base1+batches {
		t.Errorf("final g1 view has %d triples, want %d", n, base1+batches)
	}
	h.Close()
	if gens := vs.Generations(); gens != 2 {
		t.Errorf("Generations = %d after drain, want 2 (one per graph)", gens)
	}
	if pinned := vs.PinnedSnapshots(); pinned != 0 {
		t.Errorf("PinnedSnapshots = %d after drain, want 0", pinned)
	}
}
