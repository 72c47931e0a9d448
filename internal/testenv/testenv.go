// Package testenv builds a small but complete deployment (graph →
// workload → mining → selection → fragmentation → allocation → dictionary)
// shared by the tests of the higher-level packages. It is not part of the
// public API.
package testenv

import (
	"fmt"

	"rdffrag/internal/allocation"
	"rdffrag/internal/dict"
	"rdffrag/internal/fap"
	"rdffrag/internal/fragment"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// Env bundles one fully-built deployment.
type Env struct {
	G        *rdf.Graph
	Workload []*sparql.Graph
	HC       *fragment.HotCold
	Sel      *fap.Selection
	Frag     *fragment.Fragmentation
	Alloc    *allocation.Allocation
	Dict     *dict.Dictionary
	// Own lists each hot fragment's own triples, in Frag.Fragments
	// order, read from its edge set before placement dropped it.
	Own [][]rdf.Triple
}

// Graph builds a philosopher-style graph with hot and cold properties:
// n persons with name/mainInterest/influencedBy, n/2 cities with
// country/postalCode, persons linked to cities by placeOfDeath, and cold
// viaf/wappen edges.
func Graph(n int) *rdf.Graph {
	d := rdf.NewDict()
	var ts []rdf.Triple
	add := func(s, p, o rdf.Term) {
		ts = append(ts, rdf.Triple{S: d.Encode(s), P: d.Encode(p), O: d.Encode(o)})
	}
	iri := func(s string) rdf.Term { return rdf.NewIRI(s) }
	lit := func(s string) rdf.Term { return rdf.NewLiteral(s) }
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("Person%d", i)
		add(iri(p), iri("name"), lit(fmt.Sprintf("Name %d", i)))
		add(iri(p), iri("mainInterest"), iri(fmt.Sprintf("Interest%d", i%5)))
		if i%2 == 0 {
			add(iri(p), iri("influencedBy"), iri(fmt.Sprintf("Person%d", (i+3)%n)))
		}
		city := fmt.Sprintf("City%d", i%(n/2+1))
		add(iri(p), iri("placeOfDeath"), iri(city))
		add(iri(city), iri("country"), iri(fmt.Sprintf("Country%d", i%3)))
		add(iri(city), iri("postalCode"), lit(fmt.Sprintf("%05d", i)))
		if i%4 == 0 {
			add(iri(p), iri("viaf"), lit(fmt.Sprintf("%09d", i)))
		}
		if i%5 == 0 {
			add(iri(city), iri("wappen"), iri(fmt.Sprintf("Wappen%d.svg", i)))
		}
	}
	return rdf.NewFrozen(d, ts)
}

// Workload builds a mixed workload over the graph's hot properties plus a
// couple of queries touching cold properties.
func Workload(d *rdf.Dict) []*sparql.Graph {
	var w []*sparql.Graph
	for i := 0; i < 12; i++ {
		w = append(w, sparql.MustParse(d,
			`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`))
	}
	for i := 0; i < 9; i++ {
		w = append(w, sparql.MustParse(d,
			`SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . }`))
	}
	for i := 0; i < 6; i++ {
		w = append(w, sparql.MustParse(d, fmt.Sprintf(
			`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person%d> . }`, i%3)))
	}
	// Rare: cold property queries (below any sensible theta).
	w = append(w, sparql.MustParse(d, `SELECT ?x WHERE { ?x <viaf> ?v . }`))
	return w
}

// Options tunes Build.
type Options struct {
	Persons    int
	Theta      int
	MinSup     int
	Horizontal bool
	Sites      int
	StorageMul int // multiples of the hot graph size; 0 = 4
}

// Build assembles the full pipeline over the philosopher graph.
func Build(o Options) (*Env, error) {
	if o.Persons == 0 {
		o.Persons = 40
	}
	g := Graph(o.Persons)
	return BuildFrom(g, Workload(g.Dict), o)
}

// WatDiv assembles the pipeline over a generated WatDiv-like data set of
// about the given number of triples, mined from a workload that
// instantiates each of the 20 benchmark templates 20 times — so every
// template's properties are hot and its shape is a selected pattern's.
func WatDiv(triples int, horizontal bool) (*Env, *watdiv.Dataset, error) {
	ds := watdiv.Generate(watdiv.Options{Triples: triples, Seed: 1})
	workload, err := ds.GenerateWorkload(400, 1)
	if err != nil {
		return nil, nil, err
	}
	env, err := BuildFrom(ds.Graph, workload, Options{Theta: 4, MinSup: 4, StorageMul: 3, Horizontal: horizontal})
	return env, ds, err
}

// BuildFrom assembles the full pipeline over a given graph and workload.
func BuildFrom(g *rdf.Graph, workload []*sparql.Graph, o Options) (*Env, error) {
	if o.Theta == 0 {
		o.Theta = 3
	}
	if o.MinSup == 0 {
		o.MinSup = 3
	}
	if o.Sites == 0 {
		o.Sites = 4
	}
	if o.StorageMul == 0 {
		o.StorageMul = 4
	}
	env := &Env{G: g, Workload: workload}
	env.HC = fragment.SplitHotCold(env.G, env.Workload, o.Theta)
	patterns := (&mining.Miner{MinSup: o.MinSup}).Mine(env.Workload)
	sel, err := (&fap.Selector{StorageCapacity: o.StorageMul * env.HC.Hot.NumTriples()}).
		Select(patterns, env.Workload, env.HC.Hot)
	if err != nil {
		return nil, err
	}
	env.Sel = sel
	if o.Horizontal {
		env.Frag = fragment.Horizontal(sel, env.Workload, env.HC, fragment.HorizontalOptions{})
	} else {
		env.Frag = fragment.Vertical(sel, env.HC)
	}
	for _, f := range env.Frag.Fragments {
		env.Own = append(env.Own, f.Edges.Triples())
	}
	env.Alloc = allocation.Allocate(env.Frag, env.Workload, o.Sites)
	env.Dict = dict.Build(env.Frag, env.Alloc, env.Workload)
	return env, nil
}
