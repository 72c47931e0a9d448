// Package workload generates the DBpedia-like dataset and query log used
// by the experiments. The real evaluation uses DBpedia (163M triples) and
// the DBPSB query log (8.15M queries over 14 days); neither ships with
// this repository, so the generator reproduces their two load-bearing
// properties at laptop scale (see DESIGN.md §3):
//
//  1. a heavy-tailed property distribution — a few properties carry most
//     queries (the 80/20 rule of Section 3) while many properties are
//     never queried (cold);
//  2. a template-dominated query log — a small set of frequent query
//     shapes covers ~97% of queries (Section 1.1), with a tail of one-off
//     shapes.
package workload

import (
	"fmt"
	"slices"
	"strings"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

type rng struct{ x uint64 }

func newRNG(seed uint64) *rng { return &rng{x: seed*6364136223846793005 + 1442695040888963407} }

func (r *rng) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// DBpediaOptions sizes the synthetic DBpedia-like corpus.
type DBpediaOptions struct {
	// Triples is the approximate dataset size (min ~1000).
	Triples int
	// Queries is the query log length.
	Queries int
	// Seed fixes both generators.
	Seed uint64
}

// DBpedia bundles the generated graph, its entity pools and the log.
type DBpedia struct {
	Graph   *rdf.Graph
	Triples []rdf.Triple // Graph's triples in the order they were generated: what datagen writes
	Log     []*sparql.Graph
	Persons []string
	Places  []string
	Topics  []string
}

// GenerateDBpedia builds the dataset and the query log.
func GenerateDBpedia(o DBpediaOptions) (*DBpedia, error) {
	if o.Triples < 1000 {
		o.Triples = 1000
	}
	if o.Queries < 1 {
		o.Queries = 100
	}
	r := newRNG(o.Seed | 1)
	d := rdf.NewDict()
	var ts []rdf.Triple
	seen := make(map[rdf.Triple]bool)
	add := func(s, p, o rdf.Term) {
		if t := (rdf.Triple{S: d.Encode(s), P: d.Encode(p), O: d.Encode(o)}); !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	db := &DBpedia{}
	iri := rdf.NewIRI
	lit := rdf.NewLiteral

	// Each person yields ≈4.5 triples and drags ≈0.6 place triples along,
	// so persons ≈ triples/5 lands close to the requested size.
	nPersons := o.Triples / 5
	nPlaces := max(10, nPersons/4)
	nTopics := max(8, nPersons/20)

	for i := 0; i < nTopics; i++ {
		db.Topics = append(db.Topics, fmt.Sprintf("dbr:Topic%d", i))
	}
	for i := 0; i < nPlaces; i++ {
		pl := fmt.Sprintf("dbr:Place%d", i)
		db.Places = append(db.Places, pl)
		add(iri(pl), iri("dbo:country"), iri(fmt.Sprintf("dbr:Country%d", i%12)))
		add(iri(pl), iri("dbo:postalCode"), lit(fmt.Sprintf("%05d", i)))
		// Cold tail: rarely queried descriptive properties.
		if i%3 == 0 {
			add(iri(pl), iri("dbo:wappen"), iri(fmt.Sprintf("dbr:Wappen%d.svg", i)))
		}
		if i%4 == 0 {
			add(iri(pl), iri("dbo:imageSkyline"), iri(fmt.Sprintf("dbr:Skyline%d.jpg", i)))
		}
	}
	for i := 0; i < nPersons; i++ {
		p := fmt.Sprintf("dbr:Person%d", i)
		db.Persons = append(db.Persons, p)
		add(iri(p), iri("foaf:name"), lit(fmt.Sprintf("Person %d", i)))
		add(iri(p), iri("dbo:mainInterest"), iri(db.Topics[r.intn(nTopics)]))
		add(iri(p), iri("dbo:placeOfDeath"), iri(db.Places[r.intn(nPlaces)]))
		if i > 0 && r.intn(10) < 7 {
			add(iri(p), iri("dbo:influencedBy"), iri(db.Persons[r.intn(i)]))
		}
		if r.intn(10) < 4 {
			add(iri(p), iri("dbo:birthPlace"), iri(db.Places[r.intn(nPlaces)]))
		}
		// Cold tail on persons.
		if i%5 == 0 {
			add(iri(p), iri("dbo:viaf"), lit(fmt.Sprintf("%09d", i)))
		}
		if i%6 == 0 {
			add(iri(p), iri("dbo:wikiPageUsesTemplate"), iri(fmt.Sprintf("dbt:Template%d", i%7)))
		}
	}

	db.Triples = ts
	db.Graph = rdf.NewFrozen(d, slices.Clone(ts))
	log, err := db.generateLog(o.Queries, r)
	if err != nil {
		return nil, err
	}
	db.Log = log
	return db, nil
}

// logTemplate is one query shape with placeholders and a relative weight.
type logTemplate struct {
	text   string
	weight int
}

// dbpediaTemplates mirrors the DBPSB observation: a handful of shapes
// dominate (97% coverage for the frequent set), plus rare cold-property
// shapes.
var dbpediaTemplates = []logTemplate{
	{`SELECT ?x ?n WHERE { ?x <foaf:name> ?n . ?x <dbo:mainInterest> %topic% . }`, 84},
	{`SELECT ?x WHERE { ?x <foaf:name> ?n . ?x <dbo:influencedBy> %person% . }`, 54},
	{`SELECT ?x ?c WHERE { ?x <dbo:placeOfDeath> ?p . ?p <dbo:country> ?c . }`, 42},
	{`SELECT ?p WHERE { ?p <dbo:country> %country% . ?p <dbo:postalCode> ?z . }`, 36},
	{`SELECT ?x WHERE { ?x <foaf:name> ?n . ?x <dbo:placeOfDeath> %place% . }`, 27},
	{`SELECT ?x ?y WHERE { ?x <dbo:influencedBy> ?y . ?y <dbo:mainInterest> %topic% . }`, 21},
	{`SELECT ?x WHERE { ?x <dbo:birthPlace> %place% . }`, 15},
	{`SELECT ?x ?n WHERE { ?x <foaf:name> ?n . ?x <dbo:influencedBy> ?y . ?y <foaf:name> ?m . }`, 12},
	// Rare shapes over cold properties: ~1% of the log combined, so a 1%
	// minimum-support threshold keeps these properties cold.
	{`SELECT ?x WHERE { ?x <dbo:viaf> ?v . }`, 1},
	{`SELECT ?x WHERE { ?x <dbo:wappen> ?w . }`, 1},
	{`SELECT ?x WHERE { ?x <dbo:wikiPageUsesTemplate> %template% . }`, 1},
}

func (db *DBpedia) generateLog(n int, r *rng) ([]*sparql.Graph, error) {
	total := 0
	for _, t := range dbpediaTemplates {
		total += t.weight
	}
	parser := sparql.NewParser(db.Graph.Dict)
	out := make([]*sparql.Graph, 0, n)
	for i := 0; i < n; i++ {
		roll := r.intn(total)
		var tpl logTemplate
		for _, t := range dbpediaTemplates {
			if roll < t.weight {
				tpl = t
				break
			}
			roll -= t.weight
		}
		text := db.fill(tpl.text, r)
		q, err := parser.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("workload: template %q: %w", tpl.text, err)
		}
		out = append(out, q)
	}
	return out, nil
}

func (db *DBpedia) fill(text string, r *rng) string {
	pick := func(pool []string) string {
		if len(pool) == 0 {
			return "dbr:missing"
		}
		return pool[r.intn(len(pool))]
	}
	repl := strings.NewReplacer(
		"%topic%", "<"+pick(db.Topics)+">",
		"%person%", "<"+pick(db.Persons)+">",
		"%place%", "<"+pick(db.Places)+">",
		"%country%", fmt.Sprintf("<dbr:Country%d>", r.intn(12)),
		"%template%", fmt.Sprintf("<dbt:Template%d>", r.intn(7)),
	)
	return repl.Replace(text)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
