package watdiv

import (
	"fmt"
	"strings"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Template is one of the 20 WatDiv benchmark query templates. Placeholders
// of the form %user%, %product%, %retailer%, %website%, %category% are
// replaced by dataset terms during instantiation.
type Template struct {
	Name     string // L1..L5, S1..S7, F1..F5, C1..C3
	Category string // linear | star | snowflake | complex
	Text     string
}

// Templates returns the benchmark's 20 templates over this generator's
// vocabulary, mirroring the structural categories of Section 8.8.
func Templates() []Template {
	return []Template{
		// Linear: chains.
		{"L1", "linear", `SELECT ?u ?p WHERE { ?u <wsdbm:likes> ?p . ?p <mfgr:producedBy> %retailer% . }`},
		{"L2", "linear", `SELECT ?v ?p WHERE { %user% <wsdbm:follows> ?v . ?v <wsdbm:likes> ?p . }`},
		{"L3", "linear", `SELECT ?u ?w WHERE { ?u <wsdbm:subscribes> %website% . ?u <wsdbm:friendOf> ?w . }`},
		{"L4", "linear", `SELECT ?r ?u WHERE { ?r <rev:reviewsProduct> %product% . ?r <rev:reviewer> ?u . }`},
		{"L5", "linear", `SELECT ?u ?v ?p WHERE { ?u <wsdbm:follows> ?v . ?v <wsdbm:friendOf> ?w . ?w <wsdbm:likes> ?p . }`},
		// Star: one subject, several properties.
		{"S1", "star", `SELECT ?p ?c WHERE { ?p <rdf:type> %category% . ?p <sorg:caption> ?c . ?p <mfgr:producedBy> %retailer% . }`},
		{"S2", "star", `SELECT ?u ?a WHERE { ?u <rdf:type> <wsdbm:User> . ?u <sorg:age> ?a . ?u <sorg:email> ?e . }`},
		{"S3", "star", `SELECT ?p WHERE { ?p <rdf:type> %category% . ?p <sorg:caption> ?c . ?p <sorg:description> ?d . }`},
		{"S4", "star", `SELECT ?r WHERE { ?r <rev:reviewsProduct> %product% . ?r <rev:rating> ?g . }`},
		{"S5", "star", `SELECT ?u WHERE { ?u <wsdbm:likes> %product% . ?u <sorg:age> ?a . }`},
		{"S6", "star", `SELECT ?p ?pr WHERE { ?p <mfgr:producedBy> %retailer% . ?p <gr:price> ?pr . }`},
		{"S7", "star", `SELECT ?w WHERE { ?w <rdf:type> <wsdbm:Website> . ?w <sorg:url> ?l . ?w <sorg:language> ?g . }`},
		// Snowflake: stars joined by a path.
		{"F1", "snowflake", `SELECT ?u ?p ?r WHERE { ?u <wsdbm:likes> ?p . ?p <sorg:caption> ?c . ?p <mfgr:producedBy> ?r . ?u <sorg:age> ?a . }`},
		{"F2", "snowflake", `SELECT ?rv ?u WHERE { ?rv <rev:reviewsProduct> ?p . ?rv <rev:reviewer> ?u . ?p <rdf:type> %category% . ?u <sorg:email> ?e . }`},
		{"F3", "snowflake", `SELECT ?u ?v WHERE { ?u <wsdbm:follows> ?v . ?u <wsdbm:subscribes> ?w . ?v <wsdbm:likes> ?p . ?p <sorg:caption> ?c . }`},
		{"F4", "snowflake", `SELECT ?p ?r WHERE { %retailer% <gr:offers> ?p . ?p <gr:price> ?pr . ?p <rdf:type> ?t . ?rv <rev:reviewsProduct> ?p . }`},
		{"F5", "snowflake", `SELECT ?u ?p WHERE { ?u <wsdbm:likes> ?p . ?rv <rev:reviewsProduct> ?p . ?rv <rev:rating> ?g . ?u <wsdbm:follows> ?v . }`},
		// Complex: larger mixed shapes.
		{"C1", "complex", `SELECT ?u ?v ?p ?r WHERE { ?u <wsdbm:follows> ?v . ?v <wsdbm:likes> ?p . ?p <mfgr:producedBy> ?r . ?p <sorg:caption> ?c . ?u <sorg:age> ?a . }`},
		{"C2", "complex", `SELECT ?u ?p ?rv WHERE { ?u <wsdbm:likes> ?p . ?u <wsdbm:friendOf> ?f . ?f <wsdbm:subscribes> ?w . ?rv <rev:reviewsProduct> ?p . ?rv <rev:reviewer> ?u2 . ?p <gr:price> ?pr . }`},
		{"C3", "complex", `SELECT ?u WHERE { ?u <wsdbm:follows> ?v . ?v <wsdbm:friendOf> ?w . ?u <wsdbm:likes> ?p . ?p <rdf:type> %category% . ?rv <rev:reviewsProduct> ?p . }`},
	}
}

// instantiate replaces the template's placeholders with concrete dataset
// terms chosen by the deterministic generator, returning the parsed query.
func (ds *Dataset) instantiate(t Template, d *rdf.Dict, r *rng) (*sparql.Graph, error) {
	text := t.Text
	pick := func(pool []string) string {
		if len(pool) == 0 {
			return "wsdbm:missing"
		}
		return pool[r.intn(len(pool))]
	}
	repl := strings.NewReplacer(
		"%user%", "<"+pick(ds.Users)+">",
		"%product%", "<"+pick(ds.Products)+">",
		"%retailer%", "<"+pick(ds.Retailers)+">",
		"%website%", "<"+pick(ds.Websites)+">",
		"%category%", "<"+pick(ds.Categories)+">",
	)
	text = repl.Replace(text)
	return sparql.NewParser(d).Parse(text)
}

// GenerateWorkload instantiates the templates round-robin into a workload
// of n queries (WatDiv's "2000 test queries" setting uses n=2000).
func (ds *Dataset) GenerateWorkload(n int, seed uint64) ([]*sparql.Graph, error) {
	r := newRNG(seed | 1)
	ts := Templates()
	out := make([]*sparql.Graph, 0, n)
	for i := 0; i < n; i++ {
		q, err := ds.instantiate(ts[i%len(ts)], ds.Graph.Dict, r)
		if err != nil {
			return nil, fmt.Errorf("watdiv: template %s: %w", ts[i%len(ts)].Name, err)
		}
		out = append(out, q)
	}
	return out, nil
}

// BenchmarkQueries instantiates each of the 20 templates once, in order,
// for the per-query comparison of Figure 12. It returns the queries and
// their template names.
func (ds *Dataset) BenchmarkQueries(seed uint64) ([]*sparql.Graph, []string, error) {
	r := newRNG(seed | 1)
	ts := Templates()
	qs := make([]*sparql.Graph, 0, len(ts))
	names := make([]string, 0, len(ts))
	for _, t := range ts {
		q, err := ds.instantiate(t, ds.Graph.Dict, r)
		if err != nil {
			return nil, nil, fmt.Errorf("watdiv: template %s: %w", t.Name, err)
		}
		qs = append(qs, q)
		names = append(names, t.Name)
	}
	return qs, names, nil
}
