package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The 20 WatDiv query templates over the generator's vocabulary. These
// are the harness's own copy (from internal/watdiv/templates.go): the
// design workload that fragmentation is mined from comes from datagen,
// while the replayed queries are instantiated here with fresh constants
// — same shapes, new constants, which is the paper's premise about
// future queries.
var templates = map[string]string{
	"L1": `SELECT ?u ?p WHERE { ?u <wsdbm:likes> ?p . ?p <mfgr:producedBy> %retailer% . }`,
	"L2": `SELECT ?v ?p WHERE { %user% <wsdbm:follows> ?v . ?v <wsdbm:likes> ?p . }`,
	"L3": `SELECT ?u ?w WHERE { ?u <wsdbm:subscribes> %website% . ?u <wsdbm:friendOf> ?w . }`,
	"L4": `SELECT ?r ?u WHERE { ?r <rev:reviewsProduct> %product% . ?r <rev:reviewer> ?u . }`,
	"L5": `SELECT ?u ?v ?p WHERE { ?u <wsdbm:follows> ?v . ?v <wsdbm:friendOf> ?w . ?w <wsdbm:likes> ?p . }`,
	"S1": `SELECT ?p ?c WHERE { ?p <rdf:type> %category% . ?p <sorg:caption> ?c . ?p <mfgr:producedBy> %retailer% . }`,
	"S2": `SELECT ?u ?a WHERE { ?u <rdf:type> <wsdbm:User> . ?u <sorg:age> ?a . ?u <sorg:email> ?e . }`,
	"S3": `SELECT ?p WHERE { ?p <rdf:type> %category% . ?p <sorg:caption> ?c . ?p <sorg:description> ?d . }`,
	"S4": `SELECT ?r WHERE { ?r <rev:reviewsProduct> %product% . ?r <rev:rating> ?g . }`,
	"S5": `SELECT ?u WHERE { ?u <wsdbm:likes> %product% . ?u <sorg:age> ?a . }`,
	"S6": `SELECT ?p ?pr WHERE { ?p <mfgr:producedBy> %retailer% . ?p <gr:price> ?pr . }`,
	"S7": `SELECT ?w WHERE { ?w <rdf:type> <wsdbm:Website> . ?w <sorg:url> ?l . ?w <sorg:language> ?g . }`,
	"F1": `SELECT ?u ?p ?r WHERE { ?u <wsdbm:likes> ?p . ?p <sorg:caption> ?c . ?p <mfgr:producedBy> ?r . ?u <sorg:age> ?a . }`,
	"F2": `SELECT ?rv ?u WHERE { ?rv <rev:reviewsProduct> ?p . ?rv <rev:reviewer> ?u . ?p <rdf:type> %category% . ?u <sorg:email> ?e . }`,
	"F3": `SELECT ?u ?v WHERE { ?u <wsdbm:follows> ?v . ?u <wsdbm:subscribes> ?w . ?v <wsdbm:likes> ?p . ?p <sorg:caption> ?c . }`,
	"F4": `SELECT ?p ?r WHERE { %retailer% <gr:offers> ?p . ?p <gr:price> ?pr . ?p <rdf:type> ?t . ?rv <rev:reviewsProduct> ?p . }`,
	"F5": `SELECT ?u ?p WHERE { ?u <wsdbm:likes> ?p . ?rv <rev:reviewsProduct> ?p . ?rv <rev:rating> ?g . ?u <wsdbm:follows> ?v . }`,
	"C1": `SELECT ?u ?v ?p ?r WHERE { ?u <wsdbm:follows> ?v . ?v <wsdbm:likes> ?p . ?p <mfgr:producedBy> ?r . ?p <sorg:caption> ?c . ?u <sorg:age> ?a . }`,
	"C2": `SELECT ?u ?p ?rv WHERE { ?u <wsdbm:likes> ?p . ?u <wsdbm:friendOf> ?f . ?f <wsdbm:subscribes> ?w . ?rv <rev:reviewsProduct> ?p . ?rv <rev:reviewer> ?u2 . ?p <gr:price> ?pr . }`,
	"C3": `SELECT ?u WHERE { ?u <wsdbm:follows> ?v . ?v <wsdbm:friendOf> ?w . ?u <wsdbm:likes> ?p . ?p <rdf:type> %category% . ?rv <rev:reviewsProduct> ?p . }`,
}

// entityPools holds the constants each placeholder may take, scanned
// from the data file.
type entityPools map[string][]string

func scanEntities(st *store) (entityPools, error) {
	ofType := func(class string) []string {
		var out []string
		for _, s := range st.po[pair{st.ids["<rdf:type>"], st.ids[class]}] {
			out = append(out, st.terms[s])
		}
		return out
	}
	var cats []string
	for _, o := range st.distinct("<rdf:type>", false) {
		if strings.HasPrefix(o, "<wsdbm:ProductCategory") {
			cats = append(cats, o)
		}
	}
	pools := entityPools{
		"%user%":     ofType("<wsdbm:User>"),
		"%retailer%": ofType("<wsdbm:Retailer>"),
		"%website%":  ofType("<wsdbm:Website>"),
		"%product%":  st.distinct("<sorg:caption>", true),
		"%category%": cats,
	}
	for ph, p := range pools {
		if len(p) == 0 {
			return nil, fmt.Errorf("no entities for %s in the data file", ph)
		}
	}
	return pools, nil
}

// op is one query of a replayed sequence.
type op struct {
	template string
	text     string
	key      int // index into the run's distinct-query table
}

// placeholders in the fixed order instantiate draws their constants,
// so one seed always yields the same text.
var placeholders = []string{"%user%", "%product%", "%retailer%", "%website%", "%category%"}

// instantiate fills a template's placeholders with constants drawn by
// r. Each placeholder occurs at most once per template.
func instantiate(name string, pools entityPools, r *rand.Rand) string {
	text := templates[name]
	for _, ph := range placeholders {
		if strings.Contains(text, ph) {
			text = strings.Replace(text, ph, pools[ph][r.Intn(len(pools[ph]))], 1)
		}
	}
	return text
}

// pool builds up to n distinct instances spread evenly over the named
// templates (a constant-free template has only one), in a seeded
// shuffled order.
func pool(names []string, n int, pools entityPools, r *rand.Rand) []op {
	seen := map[string]bool{}
	var ops []op
	for i := 0; len(ops) < n && i < 50*n; i++ {
		name := names[i%len(names)]
		text := instantiate(name, pools, r)
		if seen[text] {
			continue
		}
		seen[text] = true
		ops = append(ops, op{template: name, text: text})
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
