package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// collect walks a run to its end: what the suites that compare whole runs
// read through.
func collect(r *Run) (ps []Pair) {
	c := Cursor{Run: *r}
	for e, ok := c.Next(); ok; e, ok = c.Next() {
		ps = append(ps, e)
	}
	return ps
}

// walk is collect keeping only the count, for the allocation guards.
func walk(r *Run) (n int) {
	c := Cursor{Run: *r}
	for _, ok := c.Next(); ok; _, ok = c.Next() {
		n++
	}
	return n
}

// Out, In and Pred hand a run out by value, for the suites to chain.
func (s *Snapshot) Out(v ID) *Run  { return new(Run).Out(s, v) }
func (s *Snapshot) In(v ID) *Run   { return new(Run).In(s, v) }
func (s *Snapshot) Pred(p ID) *Run { return new(Run).Pred(s, p) }

func (s *Snapshot) OutEdges(v ID) []Pair  { return collect(s.Out(v)) }
func (s *Snapshot) InEdges(v ID) []Pair   { return collect(s.In(v)) }
func (s *Snapshot) OutRun(v, p ID) []Pair { return collect(narrowed(s.Out(v), p)) }
func (s *Snapshot) InRun(v, p ID) []Pair  { return collect(narrowed(s.In(v), p)) }

func narrowed(r *Run, a ID) *Run {
	n := *r
	return n.Narrow(a)
}

// ByPredicate lists the visible triples labelled p in (S, O) order.
func (s *Snapshot) ByPredicate(p ID) (ts []Triple) {
	for _, so := range collect(s.Pred(p)) {
		ts = append(ts, Triple{S: so.A, P: p, O: so.B})
	}
	return ts
}

func comparePairs(a, b Pair) int {
	if a.A != b.A {
		return int(a.A) - int(b.A)
	}
	return int(a.B) - int(b.B)
}

// CompareSO orders same-predicate triples by (S, O), a predicate run's order.
func CompareSO(a, b Triple) int { return comparePairs(Pair{a.S, a.O}, Pair{b.S, b.O}) }

// TestRunAgreesWithNaiveSetProperty is the visibility rule's own suite:
// a random CSR base, a random sequence of adds and deletes over it, and
// a snapshot pinned at every bound on the way — each read only once the
// whole sequence is in the delta, so every run a snapshot loads also
// carries what was written after it. For every run of every snapshot the
// cursor's walk, Len and Has of every key must be the naive set's answer
// at that bound; and Narrow and Only must be the walk filtered.
func TestRunAgreesWithNaiveSetProperty(t *testing.T) {
	const nv, np = 5, 3
	checkRun := func(what string, id ID, sn *Snapshot, r *Run, want []Pair) bool {
		fail := func(format string, args ...any) bool {
			t.Logf("%s(%d) at bound %d: "+format, append([]any{what, id, sn.n}, args...)...)
			return false
		}
		if sn.n == 0 && r.delta != nil {
			return fail("carries %d delta entries its window cannot see", len(r.delta))
		}
		if got := collect(r); !equalRun(got, want) || r.Len() != len(want) {
			return fail("walk = %v (Len %d), want %v", got, r.Len(), want)
		}
		for a := ID(0); a <= nv+np; a++ {
			narrow := labelled(want, a)
			if got := collect(narrowed(r, a)); !equalRun(got, narrow) || narrowed(r, a).Len() != len(narrow) {
				return fail("Narrow(%d) = %v (Len %d), want %v", a, got, narrowed(r, a).Len(), narrow)
			}
			for b := ID(0); b <= nv+np; b++ {
				key, only := Pair{a, b}, *r
				if r.has(key) != slices.Contains(want, key) || narrowed(r, a).has(key) != r.has(key) {
					return fail("has(%v) = %v", key, r.has(key))
				}
				if got := collect(only.Only(key)); len(got) != only.Len() || r.has(key) != slices.Equal(got, []Pair{key}) {
					return fail("Only(%v) = %v (Len %d)", key, got, only.Len())
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := distinct(randomTriples(seed, r.Intn(40), nv, np))
		g := NewFrozen(nil, slices.Clone(base))
		g.SetAutoCompact(-1)
		ref := newNaive(base...)
		type cut struct {
			sn  *Snapshot
			ref *naiveSet
		}
		cuts := []cut{{g.Snapshot(), ref.clone()}}
		for _, tr := range randomTriples(seed+1, 1+r.Intn(40), nv, np) {
			// Two ops in three hit a live triple, so that deletes, and
			// re-inserts after them, are as common as first inserts.
			if live := ref.live; len(live) > 0 && r.Intn(3) > 0 {
				tr = live[r.Intn(len(live))]
			}
			if r.Intn(2) == 0 {
				if g.Delete(tr) != ref.Delete(tr) {
					t.Logf("seed %d: Delete(%v) disagrees with the naive set", seed, tr)
					return false
				}
			} else if g.Add(tr) != ref.Add(tr) {
				t.Logf("seed %d: Add(%v) disagrees with the naive set", seed, tr)
				return false
			}
			cuts = append(cuts, cut{g.Snapshot(), ref.clone()})
		}
		for _, c := range cuts {
			defer c.sn.Close()
			for id := ID(0); id <= nv+np; id++ {
				var pred []Pair
				for _, tr := range c.ref.pred(id) {
					pred = append(pred, Pair{tr.S, tr.O})
				}
				if !checkRun("Out", id, c.sn, c.sn.Out(id), c.ref.out(id)) ||
					!checkRun("In", id, c.sn, c.sn.In(id), c.ref.in(id)) ||
					!checkRun("Pred", id, c.sn, c.sn.Pred(id), pred) {
					t.Logf("seed %d", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// ExampleCursor is the README's snapshot example, compiled.
func ExampleCursor() {
	g := NewGraph(nil)
	v, p := g.Dict.Encode(NewIRI("v")), g.Dict.Encode(NewIRI("p"))
	g.AddTerms(NewIRI("v"), NewIRI("p"), NewIRI("o1"))
	g.Freeze()
	g.AddTerms(NewIRI("v"), NewIRI("p"), NewIRI("o2"))
	g.AddTerms(NewIRI("v"), NewIRI("q"), NewIRI("o1"))
	g.Delete(Triple{S: v, P: p, O: g.Dict.Encode(NewIRI("o1"))})

	sn := g.Snapshot()                                 // pin: lock-free, O(1)
	defer sn.Close()                                   // releases the generation pin
	g.AddTerms(NewIRI("v"), NewIRI("p"), NewIRI("o3")) // after the pin: not seen

	c := Cursor{}          // on the caller's stack; nothing is copied
	c.Out(sn, v).Narrow(p) // v's outgoing edges labelled p, as sn sees them
	for e, ok := c.Next(); ok; e, ok = c.Next() {
		fmt.Println(g.Dict.Decode(e.A), g.Dict.Decode(e.B))
	}
	// Output: <p> <o2>
}

// TestSnapshotPredRun: over a compacted snapshot, PredRun hands out what a
// Cursor walk of the predicate's run yields — for every predicate of a
// graph built frozen and of one whose deletes and inserts a compaction
// folded in, and for a predicate no triple has — and over a snapshot with
// a delta it refuses.
func TestSnapshotPredRun(t *testing.T) {
	const nv, np = 9, 3
	base := distinct(randomTriples(8, 90, nv, np))
	churned := NewFrozen(nil, slices.Clone(base))
	churned.SetAutoCompact(-1)
	for i, tr := range distinct(randomTriples(9, 30, nv, np+1)) {
		if i%3 == 0 {
			churned.Delete(tr)
		} else {
			churned.Add(tr)
		}
	}
	churned.Compact()
	for name, g := range map[string]*Graph{"frozen": NewFrozen(nil, slices.Clone(base)), "compacted": churned} {
		sn := g.Snapshot()
		for _, p := range append(sn.Predicates(), nv+np+7) {
			if got, want := sn.PredRun(p), collect(sn.Pred(p)); !slices.Equal(got, want) {
				t.Errorf("%s: PredRun(%d) = %v, the cursor's %v", name, p, got, want)
			}
		}
		sn.Close()
	}
	g := NewFrozen(nil, slices.Clone(base))
	g.Add(Triple{S: 1, P: nv, O: 70})
	sn := g.Snapshot()
	defer sn.Close()
	defer func() {
		if recover() == nil {
			t.Error("PredRun over a snapshot with a delta did not panic")
		}
	}()
	sn.PredRun(base[0].P)
}
