// Package rdffrag is a workload-driven distributed RDF store: a Go
// implementation of "Query Workload-based RDF Graph Fragmentation and
// Allocation" (Peng, Zou, Chen, Zhao — EDBT 2016).
//
// The pipeline: load an RDF graph and a SPARQL query workload, mine
// frequent access patterns from the workload, select a pattern subset
// under a storage budget (NP-hard; greedy with approximation guarantee),
// fragment the graph vertically (throughput-oriented) or horizontally
// (latency-oriented), allocate fragments to sites by workload affinity,
// and answer queries by cost-based decomposition into pattern-shaped
// subqueries evaluated only on the relevant sites.
//
// Quick start:
//
//	db := rdffrag.Open(rdffrag.Config{Sites: 4})
//	db.LoadNTriples(file)
//	dep, err := db.Deploy(workloadQueries)
//	res, err := dep.Query(`SELECT ?x WHERE { ?x <p> ?y . }`)
package rdffrag

import (
	"fmt"
	"io"

	"rdffrag/internal/allocation"
	"rdffrag/internal/cluster"
	"rdffrag/internal/dict"
	"rdffrag/internal/exec"
	"rdffrag/internal/fap"
	"rdffrag/internal/fragment"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Strategy selects the fragmentation flavour of Section 5.
type Strategy string

const (
	// Vertical fragmentation groups all matches of one access pattern
	// into one fragment — best throughput (Section 5.1).
	Vertical Strategy = "vertical"
	// Horizontal fragmentation splits each pattern's matches by
	// structural minterm predicates — best single-query latency
	// (Section 5.2).
	Horizontal Strategy = "horizontal"
)

// workersPerSite bounds each site's concurrent evaluations, mirroring the
// paper's 4-core machines.
const workersPerSite = 4

// Config tunes the offline pipeline. The zero value is usable.
type Config struct {
	// Strategy picks vertical (default) or horizontal fragmentation.
	Strategy Strategy
	// Sites is the number of simulated sites (default 4).
	Sites int
	// MinSupport is the pattern-mining threshold as a fraction of the
	// workload (default 0.01; the paper's DBpedia setting is 0.001). It is
	// also the hot/cold property threshold.
	MinSupport float64
	// StorageFactor sets the storage constraint SC as a multiple of the
	// hot graph size (default 3).
	StorageFactor float64
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = Vertical
	}
	if c.Sites <= 0 {
		c.Sites = 4
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 0.01
	}
	if c.StorageFactor <= 0 {
		c.StorageFactor = 3
	}
	return c
}

// DB is an RDF store awaiting deployment. Deploy consumes what it loaded:
// the deployment keeps the hot/cold split of the graph, not the graph, and
// the store is left empty, its dictionary — the deployment's — kept.
type DB struct {
	cfg   Config
	graph *rdf.Graph
}

// Open creates an empty store.
func Open(cfg Config) *DB {
	return &DB{cfg: cfg.withDefaults(), graph: rdf.NewGraph(nil)}
}

// LoadNTriples parses N-Triples into the store, returning the number of
// triples read.
func (db *DB) LoadNTriples(r io.Reader) (int, error) {
	return rdf.ReadNTriples(db.graph, r)
}

// LoadTurtle parses a Turtle subset (prefixes, 'a', ';'/',' lists,
// literals with language tags or datatypes) into the store.
func (db *DB) LoadTurtle(r io.Reader) (int, error) {
	return rdf.ReadTurtle(db.graph, r)
}

// AddTriple inserts one triple given as N-Triples-style terms: IRIs bare
// ("http://ex/a") and literals via AddTripleLit. Each call is one delta
// append, as a live update is; load files with LoadNTriples/LoadTurtle.
func (db *DB) AddTriple(subject, predicate, object string) {
	db.graph.AddTerms(rdf.NewIRI(subject), rdf.NewIRI(predicate), rdf.NewIRI(object))
}

// AddTripleLit inserts a triple whose object is a literal.
func (db *DB) AddTripleLit(subject, predicate, literal string) {
	db.graph.AddTerms(rdf.NewIRI(subject), rdf.NewIRI(predicate), rdf.NewLiteral(literal))
}

// NumTriples reports the loaded size: 0 once Deploy has consumed it.
func (db *DB) NumTriples() int { return db.graph.NumTriples() }

// Graph exposes the underlying graph for advanced integrations (the
// benchmark harness uses it); most callers never need it. After Deploy it
// is an empty graph over the deployment's dictionary.
func (db *DB) Graph() *rdf.Graph { return db.graph }

// Deploy runs the offline pipeline of Sections 3–6 over the given SPARQL
// workload and starts the cluster (in-process sites by default; any
// subset can be re-homed to remote fragment-host processes via
// ServerConfig.Remote / SiteHandler). It consumes the loaded graph, as
// DeployParsed does.
func (db *DB) Deploy(workloadQueries []string) (*Deployment, error) {
	parser := sparql.NewParser(db.graph.Dict)
	workload := make([]*sparql.Graph, 0, len(workloadQueries))
	for i, qs := range workloadQueries {
		q, err := parser.Parse(qs)
		if err != nil {
			return nil, fmt.Errorf("rdffrag: workload query %d: %w", i, err)
		}
		workload = append(workload, q)
	}
	return db.DeployParsed(workload)
}

// DeployParsed is Deploy for already-parsed query graphs (they must share
// this store's dictionary). It splits the loaded graph into its hot and
// cold graphs (Definitions 5–6), which together hold every triple, and
// releases it: the store is empty afterwards, whether or not the rest of
// the pipeline succeeds, and a second deployment needs the data loaded
// again.
func (db *DB) DeployParsed(workload []*sparql.Graph) (*Deployment, error) {
	cfg := db.cfg
	if len(workload) == 0 {
		return nil, fmt.Errorf("rdffrag: empty workload; workload-driven fragmentation needs queries")
	}
	minSup := atLeast1(cfg.MinSupport * float64(len(workload)))

	// Mining reads only the workload, so it runs beside the split.
	mined := make(chan []*mining.Pattern, 1)
	go func() { mined <- (&mining.Miner{MinSup: minSup}).Mine(workload) }()
	// The split builds both graphs frozen, whatever delta loading left
	// (AddTriple calls, a small file); Add after deployment goes to their
	// delta overlays (Server.Update).
	hc := fragment.SplitHotCold(db.graph, workload, minSup)
	db.graph = rdf.NewGraph(db.graph.Dict)
	patterns := <-mined
	sel, err := (&fap.Selector{
		StorageCapacity: int(cfg.StorageFactor * float64(hc.Hot.NumTriples())),
	}).Select(patterns, workload, hc.Hot)
	if err != nil {
		return nil, err
	}

	var fr *fragment.Fragmentation
	if cfg.Strategy == Horizontal {
		fr = fragment.Horizontal(sel, workload, hc, fragment.HorizontalOptions{})
	} else {
		fr = fragment.Vertical(sel, hc)
	}
	dd, alloc := dict.BuildBeside(fr, func() *allocation.Allocation { return allocation.Allocate(fr, workload, cfg.Sites) })
	cl := cluster.New(cfg.Sites, workersPerSite)
	engine, err := exec.New(cl, dd, fr, alloc, hc)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		db:  db,
		cfg: cfg,
		mined: DeployStats{
			MinedPatterns:    len(patterns),
			SelectedPatterns: len(sel.Patterns),
			WorkloadCoverage: mining.Coverage(patterns, workload),
		},
		hc:      hc,
		frag:    fr,
		alloc:   alloc,
		dict:    dd,
		cluster: cl,
		engine:  engine,
	}, nil
}

func atLeast1(x float64) int {
	n := int(x)
	if n < 1 {
		n = 1
	}
	return n
}
