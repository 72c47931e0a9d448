package bench

import (
	"fmt"
	"slices"
	"time"

	"rdffrag/internal/allocation"
	"rdffrag/internal/baseline"
	"rdffrag/internal/cluster"
	"rdffrag/internal/dict"
	"rdffrag/internal/exec"
	"rdffrag/internal/fap"
	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
	"rdffrag/internal/workload"
)

// Config sizes the experiments. The paper's DBpedia has 163M triples and
// 8.15M queries; WatDiv runs 50M–250M. Defaults here shrink both by ~10⁴
// while preserving the relative shapes (DESIGN.md §3).
type Config struct {
	DBpediaTriples int // default 12000
	DBpediaQueries int // default 1500
	WatDivTriples  int // default 10000
	WatDivQueries  int // default 600
	Sites          int // default 10, matching the paper's cluster
	Workers        int // default 4, the paper's cores per machine
	Clients        int // concurrent clients for throughput, default 8
	// Parallelism is the intra-query worker budget handed to each
	// engine (fragment fan-out × matcher morsel workers). 0 means
	// GOMAXPROCS; 1 forces sequential matching for apples-to-apples
	// comparisons against single-core figures.
	Parallelism    int
	SampleFraction float64
	Seed           uint64
	// StorageFactor sets SC as a multiple of the hot graph size for
	// VF/HF (default 1.5: enough for the highest-benefit multi-edge
	// patterns while keeping redundancy in the paper's 1.0–1.5 band).
	StorageFactor float64
	// NetPerMessage and NetPerKB simulate LAN transfer costs per
	// request/response; communication cost is what the paper's
	// strategies compete on. Defaults: 250µs per message, 50µs per KB.
	// Set negative to disable.
	NetPerMessage time.Duration
	NetPerKB      time.Duration
}

func (c Config) withDefaults() Config {
	if c.DBpediaTriples == 0 {
		c.DBpediaTriples = 12000
	}
	if c.DBpediaQueries == 0 {
		c.DBpediaQueries = 1500
	}
	if c.WatDivTriples == 0 {
		c.WatDivTriples = 10000
	}
	if c.WatDivQueries == 0 {
		c.WatDivQueries = 600
	}
	if c.Sites == 0 {
		c.Sites = 10
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.SampleFraction == 0 {
		c.SampleFraction = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 20160315 // EDBT 2016
	}
	if c.StorageFactor == 0 {
		c.StorageFactor = 1.5
	}
	if c.NetPerMessage == 0 {
		c.NetPerMessage = 250 * time.Microsecond
	} else if c.NetPerMessage < 0 {
		c.NetPerMessage = 0
	}
	if c.NetPerKB == 0 {
		c.NetPerKB = 50 * time.Microsecond
	} else if c.NetPerKB < 0 {
		c.NetPerKB = 0
	}
	return c
}

func (c Config) delay() cluster.Delay {
	return cluster.Delay{PerMessage: c.NetPerMessage, PerKB: c.NetPerKB}
}

// Dataset is one corpus plus its workload.
type Dataset struct {
	Name  string
	Graph *rdf.Graph
	Log   []*sparql.Graph
	// WatDiv keeps the generator handle for template instantiation.
	WatDiv *watdiv.Dataset
}

// Suite caches datasets and deployments across experiments.
type Suite struct {
	Cfg Config

	dbp *Dataset
	wat *Dataset
}

// NewSuite prepares a suite (datasets are built lazily).
func NewSuite(cfg Config) *Suite {
	return &Suite{Cfg: cfg.withDefaults()}
}

// dbpedia returns the synthetic DBpedia-like corpus.
func (s *Suite) dbpedia() (*Dataset, error) {
	if s.dbp != nil {
		return s.dbp, nil
	}
	db, err := workload.GenerateDBpedia(workload.DBpediaOptions{
		Triples: s.Cfg.DBpediaTriples,
		Queries: s.Cfg.DBpediaQueries,
		Seed:    s.Cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	s.dbp = &Dataset{Name: "DBpedia", Graph: db.Graph, Log: db.Log}
	return s.dbp, nil
}

// watDiv returns the WatDiv-like corpus at the configured default size.
func (s *Suite) watDiv() (*Dataset, error) {
	if s.wat != nil {
		return s.wat, nil
	}
	ds, err := s.watDivAt(s.Cfg.WatDivTriples)
	if err != nil {
		return nil, err
	}
	s.wat = ds
	return s.wat, nil
}

// watDivAt builds a WatDiv corpus of the given size (no caching).
func (s *Suite) watDivAt(triples int) (*Dataset, error) {
	wd := watdiv.Generate(watdiv.Options{Triples: triples, Seed: s.Cfg.Seed})
	log, err := wd.GenerateWorkload(s.Cfg.WatDivQueries, s.Cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: "WatDiv", Graph: wd.Graph, Log: log, WatDiv: wd}, nil
}

// Runner is a deployed strategy for the online experiments: an
// *exec.Engine for VF and HF, a *baseline.Engine for SHAPE and WARP.
type Runner interface {
	Query(q *sparql.Graph) (*match.Bindings, *exec.QueryStats, error)
}

// BuildStats captures the offline costs (Table 2) and redundancy (Table 1).
type BuildStats struct {
	Strategy     string
	Partitioning time.Duration // fragment/partition computation
	Loading      time.Duration // materializing site graphs + dictionary
	Redundancy   float64
}

// StrategyName enumerates the four compared systems.
var StrategyNames = []string{"SHAPE", "WARP", "VF", "HF"}

// buildStrategy deploys one strategy over a dataset, reporting offline
// stats. Strategy must be one of StrategyNames.
func (s *Suite) buildStrategy(ds *Dataset, strategy string) (Runner, *BuildStats, error) {
	cfg := s.Cfg
	stats := &BuildStats{Strategy: strategy}
	switch strategy {
	case "SHAPE":
		t0 := time.Now()
		p := baseline.BuildSHAPE(ds.Graph, cfg.Sites)
		stats.Partitioning = time.Since(t0)
		t1 := time.Now()
		c := cluster.New(cfg.Sites, cfg.Workers)
		c.Latency = cfg.delay()
		eng, err := baseline.NewEngine(c, p, nil, ds.Graph)
		if err != nil {
			return nil, nil, err
		}
		eng.Parallelism = cfg.Parallelism
		stats.Loading = time.Since(t1)
		stats.Redundancy = p.Redundancy(ds.Graph)
		return eng, stats, nil

	case "WARP":
		minSup := minSupOf(len(ds.Log))
		pats := (&mining.Miner{MinSup: minSup}).Mine(ds.Log)
		t0 := time.Now()
		p := baseline.BuildWARP(ds.Graph, multiEdge(pats), cfg.Sites)
		stats.Partitioning = time.Since(t0)
		t1 := time.Now()
		c := cluster.New(cfg.Sites, cfg.Workers)
		c.Latency = cfg.delay()
		eng, err := baseline.NewEngine(c, p, multiEdge(pats), ds.Graph)
		if err != nil {
			return nil, nil, err
		}
		eng.Parallelism = cfg.Parallelism
		stats.Loading = time.Since(t1)
		stats.Redundancy = p.Redundancy(ds.Graph)
		return eng, stats, nil

	case "VF", "HF":
		minSup := minSupOf(len(ds.Log))
		t0 := time.Now()
		hc := fragment.SplitHotCold(ds.Graph, ds.Log, minSup)
		pats := (&mining.Miner{MinSup: minSup}).Mine(ds.Log)
		sel, err := (&fap.Selector{StorageCapacity: int(cfg.StorageFactor * float64(hc.Hot.NumTriples()))}).
			Select(pats, ds.Log, hc.Hot)
		if err != nil {
			return nil, nil, err
		}
		stats.Partitioning = time.Since(t0)
		t1 := time.Now()
		var fr *fragment.Fragmentation
		if strategy == "HF" {
			fr = fragment.Horizontal(sel, ds.Log, hc, fragment.HorizontalOptions{})
		} else {
			fr = fragment.Vertical(sel, hc)
		}
		alloc := allocation.Allocate(fr, ds.Log, cfg.Sites)
		dd := dict.Build(fr, alloc, nil)
		c := cluster.New(cfg.Sites, cfg.Workers)
		c.Latency = cfg.delay()
		eng, err := exec.New(c, dd, fr, alloc, hc)
		if err != nil {
			return nil, nil, err
		}
		eng.Parallelism = cfg.Parallelism
		stats.Loading = time.Since(t1)
		stats.Redundancy = fr.Redundancy(ds.Graph)
		return eng, stats, nil
	}
	return nil, nil, fmt.Errorf("bench: unknown strategy %q", strategy)
}

// minSupOf mirrors the paper's default: 0.1% of the workload, at least 2.
func minSupOf(workloadLen int) int {
	m := workloadLen / 1000
	if m < 2 {
		m = 2
	}
	return m
}

// multiEdge keeps the patterns WARP replicates (1-edge patterns add
// nothing beyond the base partition).
func multiEdge(pats []*mining.Pattern) []*mining.Pattern {
	var out []*mining.Pattern
	for _, p := range pats {
		if p.Size() > 1 {
			out = append(out, p)
		}
	}
	return out
}

// sampleQueries picks every k-th query for a fraction of the workload.
func sampleQueries(log []*sparql.Graph, fraction float64) []*sparql.Graph {
	if fraction >= 1 {
		return log
	}
	n := int(float64(len(log)) * fraction)
	if n < 30 {
		n = 30
	}
	if n > len(log) {
		n = len(log)
	}
	step := len(log) / n
	if step < 1 {
		step = 1
	}
	var out []*sparql.Graph
	for i := 0; i < len(log) && len(out) < n; i += step {
		out = append(out, log[i])
	}
	return out
}

// centralAnswer answers q over the full graph with the same projection
// semantics as the distributed engines: distinct projected rows, in Dedup
// order. Tests and the validation mode of cmd/experiments compare every
// strategy's answer with it.
func centralAnswer(q *sparql.Graph, g *rdf.Graph) *match.Bindings {
	sn := g.Snapshot()
	defer sn.Close()
	ms := match.Find(q, sn, match.Options{})
	b := match.ToBindings(q, ms)
	if len(q.Select) > 0 {
		b = cluster.Project(b, q.Select)
	} else {
		b.Dedup()
	}
	return b
}

// sameAnswer reports whether two answers, each in Dedup order, bind the
// same variables to the same rows.
func sameAnswer(a, b *match.Bindings) bool {
	return slices.Equal(a.Vars, b.Vars) && a.Len() == b.Len() && slices.Equal(a.Rows, b.Rows)
}
