package rdf

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// TestAddAllEqualsAddLoopProperty: a batch handed to addAll leaves what
// Add of each triple in turn leaves — every Snapshot accessor, Stats,
// NumTriples and the count returned — for batches a few triples
// either side of the threshold where addAll stops appending to the delta
// and builds a generation instead, holding triples the graph has and
// repeats of their own, on an empty graph, a populated one, one carrying
// a delta and one carrying tombstones. A snapshot pinned before the call
// reads afterwards as it did, and a reader takes snapshots throughout.
func TestAddAllEqualsAddLoopProperty(t *testing.T) {
	const nv, np = 12, 4
	states := []string{"empty", "populated", "delta", "tombstones"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		state := int(uint64(seed) % uint64(len(states)))
		build := func() *Graph {
			var base []Triple
			if state > 0 {
				base = randomTriples(seed, 40+int(uint64(seed)%300), nv, np)
			}
			g := NewFrozen(nil, base)
			if state >= 2 {
				for _, tr := range randomTriples(seed+1, 12, 2*nv, np) {
					g.Add(tr)
				}
			}
			if state == 3 {
				live := slices.Clone(g.Triples())
				for i := 0; i < 60 && i < len(live); i += 3 { // short of a compaction
					g.Delete(live[i])
				}
				g.Add(live[0]) // gone and back inside the delta window
			}
			return g
		}
		bulk, loop := build(), build()
		if state >= 2 && bulk.DeltaLen() == 0 || state == 3 && bulk.snapshotAt().dels() == 0 {
			t.Logf("seed %d: setup left no %s", seed, states[state])
			return false
		}
		want := newNaive(bulk.Triples()...)
		threshold := bulk.compactThreshold(bulk.gen.Load())
		batch := randomTriples(seed+2, threshold-3+r.Intn(7), 3*nv, np)
		for i := 0; i < len(batch); i += 9 { // one the graph may hold, and a repeat
			if len(want.live) > 0 {
				batch[i] = want.live[r.Intn(len(want.live))]
			}
			batch[(i+4)%len(batch)] = batch[r.Intn(len(batch))]
		}
		bulkStats, loopStats := NewStats(bulk), NewStats(loop)
		for _, p := range want.predicates() { // folded up to here, so addAll's part folds on top
			bulkStats.predicate(p)
			loopStats.predicate(p)
		}
		pinned, pinnedWant, deltaBefore := bulk.Snapshot(), want.clone(), bulk.DeltaLen()
		defer pinned.Close()

		stop := make(chan struct{})
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := bulk.Snapshot()
				if n := sn.NumTriples(); n != len(sn.Triples()) || n < len(pinnedWant.live) {
					t.Errorf("seed %d: a snapshot taken during addAll has NumTriples %d, %d Triples", seed, n, len(sn.Triples()))
				}
				sn.Close()
			}
		}()
		got := bulk.addAll(slices.Clone(batch))
		close(stop)
		reader.Wait()

		for _, tr := range batch {
			if loop.Add(tr) != want.Add(tr) {
				t.Logf("seed %d: Add(%v) disagrees with the naive set", seed, tr)
				return false
			}
		}
		added := len(want.live) - len(pinnedWant.live)
		ok := got == added && bulk.NumTriples() == loop.NumTriples() &&
			equalRun(bulk.Triples(), want.spo()) && equalRun(loop.Triples(), want.spo())
		if len(batch) >= threshold { // one generation over everything
			ok = ok && bulk.DeltaLen() == 0
		} else { // the same run of delta appends
			ok = ok && bulk.DeltaLen() == loop.DeltaLen() && (bulk.DeltaLen() == deltaBefore+added || bulk.DeltaLen() < threshold)
		}
		if !ok {
			t.Logf("seed %d (%s, batch %d, threshold %d): addAll = %d, %d triples, delta %d; the loop added %d, %d triples",
				seed, states[state], len(batch), threshold, got, bulk.NumTriples(), bulk.DeltaLen(), added, loop.NumTriples())
			return false
		}
		bs, ls := bulk.Snapshot(), loop.Snapshot()
		defer bs.Close()
		defer ls.Close()
		if !want.readBy(t, bs) || !want.readBy(t, ls) || !pinnedWant.readBy(t, pinned) {
			t.Logf("seed %d (%s, batch %d, threshold %d): snapshots diverged", seed, states[state], len(batch), threshold)
			return false
		}
		for _, p := range append(want.predicates(), 999) {
			if b, l, w := bulkStats.predicate(p), loopStats.predicate(p), want.stats(p); b != w || l != w {
				t.Logf("seed %d (%s): Stats.predicate(%d) = %+v after addAll, %+v after the loop, want %+v", seed, states[state], p, b, l, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
