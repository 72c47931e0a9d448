package bench

import (
	"fmt"
	"time"

	"rdffrag/internal/allocation"
	"rdffrag/internal/cluster"
	"rdffrag/internal/dict"
	"rdffrag/internal/exec"
	"rdffrag/internal/fap"
	"rdffrag/internal/fragment"
	"rdffrag/internal/mining"
	"rdffrag/internal/sparql"
)

// Ablations isolate the design choices DESIGN.md §5 calls out: pattern
// selection (Algorithm 1), cost-model-driven decomposition (Algorithm 3)
// and affinity-based allocation (Algorithm 2). Each compares the paper's
// mechanism against a stripped variant on the DBpedia-like corpus.

// vfPipeline builds VF deployments with injectable selection/allocation/
// decomposition variants.
type vfPipeline struct {
	hc  *fragment.HotCold
	sel *fap.Selection
	fr  *fragment.Fragmentation
}

func (s *Suite) vfFor(ds *Dataset, storageMul float64, oneEdgeOnly bool) (*vfPipeline, error) {
	minSup := minSupOf(len(ds.Log))
	hc := fragment.SplitHotCold(ds.Graph, ds.Log, minSup)
	var pats []*mining.Pattern
	if !oneEdgeOnly {
		pats = (&mining.Miner{MinSup: minSup}).Mine(ds.Log)
	}
	sel, err := (&fap.Selector{
		StorageCapacity: int(storageMul * float64(hc.Hot.NumTriples())),
	}).Select(pats, ds.Log, hc.Hot)
	if err != nil {
		return nil, err
	}
	return &vfPipeline{hc: hc, sel: sel, fr: fragment.Vertical(sel, hc)}, nil
}

func (s *Suite) engineFor(p *vfPipeline, ds *Dataset, alloc *allocation.Allocation, naive bool) (*exec.Engine, error) {
	dd := dict.Build(p.fr, alloc, nil)
	c := cluster.New(s.Cfg.Sites, s.Cfg.Workers)
	c.Latency = s.Cfg.delay()
	eng, err := exec.New(c, dd, p.fr, alloc, p.hc)
	if err != nil {
		return nil, err
	}
	eng.Parallelism = s.Cfg.Parallelism
	eng.SetNaiveDecomposition(naive)
	return eng, nil
}

func avgLatency(eng *exec.Engine, qs []*sparql.Graph) (time.Duration, float64, error) {
	t0 := time.Now()
	totalSites := 0
	for _, q := range qs {
		_, st, err := eng.Query(q)
		if err != nil {
			return 0, 0, err
		}
		totalSites += st.SitesTouched
	}
	return time.Since(t0) / time.Duration(len(qs)), float64(totalSites) / float64(len(qs)), nil
}

// AblationSelection compares Algorithm 1 against one-edge-only selection
// and an effectively unbounded greedy ("select-all"), reporting the
// benefit/storage trade-off and query latency.
func (s *Suite) AblationSelection() (*Table, error) {
	ds, err := s.dbpedia()
	if err != nil {
		return nil, err
	}
	sample := sampleQueries(ds.Log, s.Cfg.SampleFraction)
	t := &Table{
		ID:     "ablation-selection",
		Title:  "pattern selection: Algorithm 1 vs one-edge-only vs unbounded greedy",
		Header: []string{"variant", "patterns", "benefit", "stored edges", "redundancy", "avg latency"},
		Notes:  "Algorithm 1 should approach unbounded benefit at a fraction of the storage",
	}
	type variant struct {
		name       string
		storageMul float64
		oneEdge    bool
	}
	for _, v := range []variant{
		{"one-edge-only", 1.0, true},
		{"algorithm-1 (SC=1.5×)", 1.5, false},
		{"unbounded greedy", 100, false},
	} {
		p, err := s.vfFor(ds, v.storageMul, v.oneEdge)
		if err != nil {
			return nil, err
		}
		alloc := allocation.Allocate(p.fr, ds.Log, s.Cfg.Sites)
		eng, err := s.engineFor(p, ds, alloc, false)
		if err != nil {
			return nil, err
		}
		lat, _, err := avgLatency(eng, sample)
		if err != nil {
			return nil, err
		}
		t.addRow(v.name,
			fmt.Sprintf("%d", len(p.sel.Patterns)),
			fmt.Sprintf("%d", p.sel.Benefit),
			fmt.Sprintf("%d", p.sel.TotalSize),
			f2(p.fr.Redundancy(ds.Graph)),
			ms(float64(lat.Microseconds())/1000),
		)
	}
	return t, nil
}

// AblationDecomposition compares Algorithm 3's cost-driven decomposition
// against the naive single-edge decomposition.
func (s *Suite) AblationDecomposition() (*Table, error) {
	ds, err := s.dbpedia()
	if err != nil {
		return nil, err
	}
	sample := sampleQueries(ds.Log, s.Cfg.SampleFraction)
	t := &Table{
		ID:     "ablation-decomposition",
		Title:  "query decomposition: Algorithm 3 vs single-edge subqueries",
		Header: []string{"variant", "avg latency", "avg sites/query"},
		Notes:  "cost-driven decomposition needs fewer distributed joins",
	}
	p, err := s.vfFor(ds, 1.5, false)
	if err != nil {
		return nil, err
	}
	alloc := allocation.Allocate(p.fr, ds.Log, s.Cfg.Sites)
	for _, naive := range []bool{false, true} {
		eng, err := s.engineFor(p, ds, alloc, naive)
		if err != nil {
			return nil, err
		}
		lat, sites, err := avgLatency(eng, sample)
		if err != nil {
			return nil, err
		}
		name := "algorithm-3"
		if naive {
			name = "single-edge"
		}
		t.addRow(name, ms(float64(lat.Microseconds())/1000), f2(sites))
	}
	return t, nil
}

// Validate cross-checks all four strategies against centralized ground
// truth on a sample of both workloads, reporting how many answers differ
// in a variable or a row. It is the correctness gate behind every timing
// experiment.
func (s *Suite) Validate() (*Table, error) {
	t := &Table{
		ID:     "validate",
		Title:  "distributed vs centralized answers, row for row",
		Header: []string{"dataset", "strategy", "queries", "mismatches"},
		Notes:  "every cell in the mismatches column must be 0",
	}
	for _, get := range []func() (*Dataset, error){s.dbpedia, s.watDiv} {
		ds, err := get()
		if err != nil {
			return nil, err
		}
		sample := sampleQueries(ds.Log, s.Cfg.SampleFraction*2)
		for _, name := range StrategyNames {
			r, _, err := s.buildStrategy(ds, name)
			if err != nil {
				return nil, err
			}
			mismatches := 0
			for _, q := range sample {
				got, _, err := r.Query(q)
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", name, ds.Name, err)
				}
				if !sameAnswer(got, centralAnswer(q, ds.Graph)) {
					mismatches++
				}
			}
			t.addRow(ds.Name, name, fmt.Sprintf("%d", len(sample)), fmt.Sprintf("%d", mismatches))
		}
	}
	return t, nil
}

// AblationAllocation compares PNN affinity clustering against round-robin
// placement.
func (s *Suite) AblationAllocation() (*Table, error) {
	ds, err := s.dbpedia()
	if err != nil {
		return nil, err
	}
	sample := sampleQueries(ds.Log, s.Cfg.SampleFraction)
	t := &Table{
		ID:     "ablation-allocation",
		Title:  "allocation: PNN affinity clustering (Algorithm 2) vs round-robin",
		Header: []string{"variant", "avg latency", "avg sites/query", "balance"},
		Notes:  "affinity clustering keeps co-accessed fragments on one site",
	}
	for _, rr := range []bool{false, true} {
		// Allocation places the fragmentation it allocates, so each
		// variant allocates one of its own.
		p, err := s.vfFor(ds, 1.5, false)
		if err != nil {
			return nil, err
		}
		var alloc *allocation.Allocation
		name := "pnn-affinity"
		if rr {
			alloc = allocation.RoundRobin(p.fr, s.Cfg.Sites)
			name = "round-robin"
		} else {
			alloc = allocation.Allocate(p.fr, ds.Log, s.Cfg.Sites)
		}
		eng, err := s.engineFor(p, ds, alloc, false)
		if err != nil {
			return nil, err
		}
		lat, sites, err := avgLatency(eng, sample)
		if err != nil {
			return nil, err
		}
		t.addRow(name, ms(float64(lat.Microseconds())/1000), f2(sites), f2(alloc.Balance()))
	}
	return t, nil
}
