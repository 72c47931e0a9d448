package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"rdffrag/internal/allocation"
	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/dict"
	"rdffrag/internal/exec"
	"rdffrag/internal/fap"
	"rdffrag/internal/fragment"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// staged is a deployment built stage by stage, with what each stage
// cost. It mirrors DB.DeployParsed under rdffrag.Config's defaults,
// which are what `rdffrag serve` runs with.
type staged struct {
	graph  *rdf.Graph
	hc     *fragment.HotCold
	frag   *fragment.Fragmentation
	alloc  *allocation.Allocation
	dict   *dict.Dictionary
	engine *exec.Engine
	dec    *decompose.Decomposer

	seconds map[string]float64 // stage name → seconds
	counts  map[string]float64 // design counts
	ratios  map[string]float64 // design ratios
}

const (
	defaultSites      = 4
	defaultWorkers    = 4
	defaultMinSupport = 0.01
	defaultStorage    = 3.0
)

func readDesign(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var queries []string
	for _, block := range strings.Split(string(data), "\n---") {
		if q := strings.TrimSpace(strings.TrimPrefix(block, "---")); q != "" {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("%s holds no queries", path)
	}
	return queries, nil
}

func buildStaged(dataPath string, design []string, strategy string) (*staged, error) {
	s := &staged{seconds: map[string]float64{}, counts: map[string]float64{}, ratios: map[string]float64{}}
	stage := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		s.seconds[name] = time.Since(start).Seconds()
		return err
	}
	s.graph = rdf.NewGraph(nil)
	err := stage("rdf.load_s", func() error {
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = rdf.ReadNTriples(s.graph, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	parser := sparql.NewParser(s.graph.Dict)
	workload := make([]*sparql.Graph, 0, len(design))
	for i, text := range design {
		q, err := parser.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("design query %d: %w", i, err)
		}
		workload = append(workload, q)
	}
	threshold := max(1, int(defaultMinSupport*float64(len(workload))))

	stage("rdf.freeze_s", func() error { s.graph.Freeze(); return nil })
	stage("fragment.hotcold_s", func() error { s.hc = fragment.SplitHotCold(s.graph, workload, threshold); return nil })
	var patterns []*mining.Pattern
	stage("mining.mine_s", func() error { patterns = (&mining.Miner{MinSup: threshold}).Mine(workload); return nil })
	var sel *fap.Selection
	err = stage("fap.select_s", func() (err error) {
		sel, err = (&fap.Selector{StorageCapacity: int(defaultStorage * float64(s.hc.Hot.NumTriples()))}).Select(patterns, workload, s.hc.Hot)
		return err
	})
	if err != nil {
		return nil, err
	}
	stage("fragment.build_s", func() error {
		if strategy == "horizontal" {
			s.frag = fragment.Horizontal(sel, workload, s.hc, fragment.HorizontalOptions{})
		} else {
			s.frag = fragment.Vertical(sel, s.hc)
		}
		return nil
	})
	stage("allocation.allocate_s", func() error { s.alloc = allocation.Allocate(s.frag, workload, defaultSites); return nil })
	stage("dict.build_s", func() error { s.dict = dict.Build(s.frag, s.alloc, workload); return nil })
	err = stage("exec.place_s", func() (err error) {
		s.engine, err = exec.New(cluster.New(defaultSites, defaultWorkers), s.dict, s.frag, s.alloc, s.hc)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.dec = &decompose.Decomposer{Dict: s.dict, HC: s.hc}
	s.counts["mining.patterns"] = float64(len(patterns))
	s.counts["fap.selected"] = float64(len(sel.Patterns))
	s.counts["fragment.count"] = float64(len(s.frag.Fragments))
	s.ratios["fragment.redundancy"] = s.frag.Redundancy(s.graph)
	s.ratios["allocation.balance"] = s.alloc.Balance()
	return s, nil
}

// route maps a subquery to the fragments it reads at each site, the way
// exec.Engine routes it.
func (s *staged) route(sq *decompose.Subquery) map[int][]*fragment.Fragment {
	bySite := map[int][]*fragment.Fragment{}
	switch {
	case sq.Cold:
		if s.frag.Cold != nil && s.alloc.ColdSite >= 0 {
			bySite[s.alloc.ColdSite] = []*fragment.Fragment{s.frag.Cold}
		}
	case sq.Global:
		for _, f := range s.frag.All() {
			site := s.alloc.SiteOf[f.ID]
			bySite[site] = append(bySite[site], f)
		}
	default:
		for _, e := range s.dict.RelevantEntries(sq.Graph) {
			bySite[e.Site] = append(bySite[e.Site], e.Fragment)
		}
	}
	return bySite
}
