package rdf

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestWriterMembershipEqualsMapOracle: a frozen graph has no membership
// map, so Add, Delete, Has, NumTriples and Triples answer from the current
// generation; a map and a list kept beside it say what they must answer.
// Every kind of write is in the mix — a new triple, a duplicate, a delete,
// a delete of an absent triple, a delete and re-add inside one delta
// window, Compact — while a reader goroutine takes snapshots, and a
// snapshot pinned a third of the way in still answers as of then at the
// end.
func TestWriterMembershipEqualsMapOracle(t *testing.T) {
	const nv, np, off = 10, 3, 300 // IDs past the small integers an interface holds without allocating
	for seed := int64(1); seed <= 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		randomTriple := func() Triple {
			return Triple{S: ID(off + r.Intn(nv)), P: ID(off + nv + r.Intn(np)), O: ID(off + r.Intn(nv))}
		}
		var universe []Triple
		for s := 0; s < nv; s++ {
			for p := 0; p < np; p++ {
				for o := 0; o < nv; o++ {
					universe = append(universe, Triple{S: ID(off + s), P: ID(off + nv + p), O: ID(off + o)})
				}
			}
		}
		var live []Triple // the oracle: live triples, each where it was last inserted
		member := map[Triple]bool{}
		for len(live) < 60 {
			if tr := randomTriple(); !member[tr] {
				member[tr] = true
				live = append(live, tr)
			}
		}
		var g *Graph
		if seed%2 == 0 {
			g = NewFrozen(nil, slices.Clone(live))
		} else {
			g = graphOf(live)
			g.Freeze()
		}
		if seed%4 < 2 {
			g.SetAutoCompact(-1)
		}

		stop := make(chan struct{})
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := g.Snapshot()
				n := 0
				for _, tr := range universe[rr.Intn(len(universe)/2):] {
					if sn.has(tr) {
						n++
					}
				}
				if n > sn.NumTriples() || sn.NumTriples() != len(sn.Triples()) {
					t.Errorf("seed %d: a snapshot has %d of a suffix of the universe, NumTriples %d, %d Triples", seed, n, sn.NumTriples(), len(sn.Triples()))
				}
				sn.Close()
			}
		}()

		add := func(tr Triple) {
			if got := g.Add(tr); got == member[tr] {
				t.Fatalf("seed %d: Add(%v) = %v with the triple present: %v", seed, tr, got, member[tr])
			}
			if !member[tr] {
				member[tr] = true
				live = append(live, tr)
			}
		}
		del := func(tr Triple) {
			if got := g.Delete(tr); got != member[tr] {
				t.Fatalf("seed %d: Delete(%v) = %v with the triple present: %v", seed, tr, got, member[tr])
			}
			if member[tr] {
				delete(member, tr)
				live = slices.DeleteFunc(live, func(x Triple) bool { return x == tr })
			}
		}
		liveSPO := func() []Triple { // the oracle's list as a graph lists it
			ts := slices.Clone(live)
			slices.SortFunc(ts, CompareSPO)
			return ts
		}
		var (
			pinned       *Snapshot
			pinnedMember map[Triple]bool
		)
		const steps = 240
		for step := 0; step < steps; step++ {
			if step == steps/3 {
				pinned, pinnedMember = g.Snapshot(), maps.Clone(member)
			}
			switch op := r.Intn(12); {
			case op < 3:
				add(randomTriple())
			case op < 5 && len(live) > 0: // a duplicate
				add(live[r.Intn(len(live))])
			case op < 8 && len(live) > 0:
				del(live[r.Intn(len(live))])
			case op < 9: // most likely absent
				del(randomTriple())
			case op < 11 && len(live) > 0: // gone and back inside one delta window
				tr := live[r.Intn(len(live))]
				del(tr)
				del(tr)
				add(tr)
				add(tr)
			default:
				g.Compact()
			}
			if g.NumTriples() != len(live) {
				t.Fatalf("seed %d step %d: NumTriples = %d, the oracle holds %d", seed, step, g.NumTriples(), len(live))
			}
			for i := 0; i < 8; i++ {
				if tr := randomTriple(); g.Has(tr) != member[tr] {
					t.Fatalf("seed %d step %d: Has(%v) = %v, the oracle says %v (delta %d, tombstones %d)",
						seed, step, tr, !member[tr], member[tr], g.DeltaLen(), g.snapshotAt().dels())
				}
			}
			if step%7 == 0 && !slices.Equal(g.Triples(), liveSPO()) {
				t.Fatalf("seed %d step %d: Triples() is not the oracle's list", seed, step)
			}
		}
		close(stop)
		reader.Wait()
		if !slices.Equal(g.Triples(), liveSPO()) {
			t.Fatalf("seed %d: Triples() is not the oracle's list at the end", seed)
		}
		for _, tr := range universe {
			if g.Has(tr) != member[tr] {
				t.Fatalf("seed %d: Has(%v) = %v at the end", seed, tr, !member[tr])
			}
			if pinned.has(tr) != pinnedMember[tr] {
				t.Fatalf("seed %d: the snapshot pinned at step %d now says Has(%v) = %v", seed, steps/3, tr, !pinnedMember[tr])
			}
		}
		pinned.Close()
	}
}
