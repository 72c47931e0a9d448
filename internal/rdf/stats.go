package rdf

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Stats caches per-predicate statistics of a graph: triple counts and
// distinct subject/object counts. The cost models use these to estimate
// constant selectivities (a triple pattern with a bound object matches
// count/distinctObjects triples on average).
//
// It keeps a row per predicate and nothing per vertex. The first estimate
// over a CSR generation counts the rows from its arenas; later ones fold
// in only the delta ops logged since. Readers of a current view take no
// lock: a refresh copies the rows under mu and publishes the copy.
type Stats struct {
	g    *Graph
	mu   sync.Mutex // serializes refreshes
	view atomic.Pointer[statsView]
}

// statsView is the rows as of the first ops delta ops of generation gen.
// It is immutable once published.
type statsView struct {
	gen   uint64
	ops   int
	preds []ID        // ascending
	rows  []PredStats // rows[i] is preds[i]'s
}

// PredStats summarizes one property.
type PredStats struct {
	Count            int
	DistinctSubjects int
	DistinctObjects  int
}

// NewStats wraps a graph; computation happens lazily on first use.
func NewStats(g *Graph) *Stats { return &Stats{g: g} }

// predicate returns the statistics for property p (zero value if absent).
func (s *Stats) predicate(p ID) PredStats {
	gen := s.g.gen.Load()
	v := s.view.Load()
	if v == nil || v.gen != gen.id || v.ops < int(gen.delta.n.Load()) {
		v = s.refresh()
	}
	if i, ok := slices.BinarySearch(v.preds, p); ok {
		return v.rows[i]
	}
	return PredStats{}
}

// refresh brings the view up to the graph's current cut and publishes it.
func (s *Stats) refresh() *statsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.g.gen.Load()
	n := int(gen.delta.n.Load())
	v := s.view.Load()
	switch {
	case v == nil || v.gen != gen.id:
		v = &statsView{gen: gen.id, preds: slices.Clone(gen.csr.preds), rows: baseCounts(gen.csr)}
	case v.ops >= n:
		return v
	default:
		v = &statsView{gen: gen.id, ops: v.ops, preds: slices.Clone(v.preds), rows: slices.Clone(v.rows)}
	}
	for ; v.ops < n; v.ops++ {
		v.fold(gen, uint32(v.ops))
	}
	s.view.Store(v)
	return v
}

// baseCounts counts the rows of a CSR with no map: a predicate's run is
// sorted by subject and an object's in-run by predicate, so a distinct
// subject or object is a change of A along a run.
func baseCounts(c *csrIndex) []PredStats {
	rows := make([]PredStats, len(c.preds))
	for i, p := range c.preds {
		run := c.pred(p)
		rows[i].Count = len(run)
		for j := range run {
			if j == 0 || run[j].A != run[j-1].A {
				rows[i].DistinctSubjects++
			}
		}
	}
	for k := 0; k+1 < len(c.inRuns.off); k++ {
		run := c.inArena[c.inRuns.off[k]:c.inRuns.off[k+1]]
		for j := range run {
			if j == 0 || run[j].A != run[j-1].A {
				i, _ := slices.BinarySearch(c.preds, run[j].A)
				rows[i].DistinctObjects++
			}
		}
	}
	return rows
}

// fold applies the op with sequence number seq. An endpoint is distinct
// under p while its run narrowed to p is not empty: an add counts one
// that is empty at its own cut, a delete retires one that is empty at the
// cut after it.
func (v *statsView) fold(gen *generation, seq uint32) {
	op := (*gen.delta.opsHdr.Load())[seq]
	t := op.T
	i, ok := slices.BinarySearch(v.preds, t.P)
	if !ok {
		v.preds, v.rows = slices.Insert(v.preds, i, t.P), slices.Insert(v.rows, i, PredStats{})
	}
	row := &v.rows[i]
	d, cut := 1, seq
	if op.Del {
		d, cut = -1, seq+1
	}
	row.Count += d
	var r Run
	if r.out(gen, t.S, cut).Narrow(t.P).Len() == 0 {
		row.DistinctSubjects += d
	}
	if r.in(gen, t.O, cut).Narrow(t.P).Len() == 0 {
		row.DistinctObjects += d
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
