package rdf

import "sync"

// Stats caches per-predicate statistics of a graph: triple counts and
// distinct subject/object counts. The cost models use these to estimate
// constant selectivities (a triple pattern with a bound object matches
// count/distinctObjects triples on average).
//
// Refresh is incremental within a CSR generation: the cache keeps
// persistent per-predicate aggregates (count plus refcounted
// distinct-subject/object maps) keyed by the generation id, folds the
// generation's predicate arena once, and then folds only the delta
// op-log suffix on later lookups — O(new ops), not O(|E|). Delete ops
// decrement the refcounts, so distinct counts shrink exactly when the
// last triple carrying a subject/object under a predicate goes away. A
// compaction starts a new generation, which resets the cache and refolds;
// compactions are rare enough that the amortized cost stays negligible.
// Safe for concurrent readers racing the single writer: every input is
// read through the generation's published atomics.
type Stats struct {
	g *Graph

	mu        sync.RWMutex
	foldedGen uint64 // CSR generation the aggregates cover (0 = none)
	foldedOps int    // delta ops of that generation folded in
	perPred   map[ID]*predAgg
}

// predAgg is the persistent aggregate for one predicate. The maps count
// how many live triples of this predicate carry each subject/object, so
// deletes can retire a distinct value exactly when its count reaches 0.
type predAgg struct {
	count int
	subs  map[ID]int
	objs  map[ID]int
}

// PredStats summarizes one property.
type PredStats struct {
	Count            int
	DistinctSubjects int
	DistinctObjects  int
}

// NewStats wraps a graph; computation happens lazily on first use.
func NewStats(g *Graph) *Stats {
	return &Stats{g: g, perPred: make(map[ID]*predAgg)}
}

// predicate returns the statistics for property p (zero value if absent).
// New ops since the last call are folded in incrementally; fresh-cache
// lookups contend only on a read lock.
func (s *Stats) predicate(p ID) PredStats {
	gen := s.g.gen.Load()
	n := int(gen.delta.n.Load())
	s.mu.RLock()
	if s.foldedGen == gen.id && s.foldedOps >= n {
		ps := s.read(p)
		s.mu.RUnlock()
		return ps
	}
	s.mu.RUnlock()

	s.mu.Lock()
	if s.foldedGen != gen.id {
		s.perPred = make(map[ID]*predAgg)
		for _, p := range gen.csr.preds {
			for _, so := range gen.csr.pred(p) {
				s.foldAdd(Triple{S: so.A, P: p, O: so.B})
			}
		}
		s.foldedGen = gen.id
		s.foldedOps = 0
	}
	if n > s.foldedOps {
		ops := (*gen.delta.opsHdr.Load())[:n]
		for _, op := range ops[s.foldedOps:] {
			if op.Del {
				s.foldDel(op.T)
			} else {
				s.foldAdd(op.T)
			}
		}
		s.foldedOps = n
	}
	ps := s.read(p)
	s.mu.Unlock()
	return ps
}

// foldAdd folds one live triple into the aggregates; caller holds mu.
func (s *Stats) foldAdd(t Triple) {
	agg := s.perPred[t.P]
	if agg == nil {
		agg = &predAgg{subs: make(map[ID]int), objs: make(map[ID]int)}
		s.perPred[t.P] = agg
	}
	agg.count++
	agg.subs[t.S]++
	agg.objs[t.O]++
}

// foldDel undoes foldAdd for one deleted triple; caller holds mu.
func (s *Stats) foldDel(t Triple) {
	agg := s.perPred[t.P]
	if agg == nil {
		return
	}
	agg.count--
	if agg.subs[t.S]--; agg.subs[t.S] == 0 {
		delete(agg.subs, t.S)
	}
	if agg.objs[t.O]--; agg.objs[t.O] == 0 {
		delete(agg.objs, t.O)
	}
}

// read assembles the exported numbers for p; caller holds a lock.
func (s *Stats) read(p ID) PredStats {
	agg := s.perPred[p]
	if agg == nil {
		return PredStats{}
	}
	return PredStats{
		Count:            agg.count,
		DistinctSubjects: len(agg.subs),
		DistinctObjects:  len(agg.objs),
	}
}

// EstimateTriplePattern estimates the matches of a single triple pattern
// with optional bound endpoints: count scaled by 1/distinct per bound
// side. Always at least 1 when the predicate exists.
func (s *Stats) EstimateTriplePattern(p ID, subjectBound, objectBound bool) int {
	ps := s.predicate(p)
	if ps.Count == 0 {
		return 0
	}
	est := float64(ps.Count)
	if subjectBound && ps.DistinctSubjects > 0 {
		est /= float64(ps.DistinctSubjects)
	}
	if objectBound && ps.DistinctObjects > 0 {
		est /= float64(ps.DistinctObjects)
	}
	if est < 1 {
		est = 1
	}
	return int(est)
}
