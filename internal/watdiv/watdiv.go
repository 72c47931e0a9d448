// Package watdiv is a WatDiv-style synthetic benchmark generator [1]: an
// e-commerce RDF schema (users, products, retailers, reviews, offers,
// websites) with deliberate attribute diversity — instances of the same
// type carry different attribute sets — plus the benchmark's 20 query
// templates in four structural categories: linear (L1–L5), star (S1–S7),
// snowflake (F1–F5) and complex (C1–C3). Templates are instantiated with
// actual terms drawn from the generated dataset, exactly as WatDiv does.
//
// The paper evaluates on 50M–250M triples; this generator targets the
// same shape at laptop scale (see DESIGN.md §3).
package watdiv

import (
	"fmt"
	"slices"

	"rdffrag/internal/rdf"
)

// Dataset is a generated WatDiv-like graph plus the entity pools needed
// to instantiate query templates.
type Dataset struct {
	Graph *rdf.Graph
	// Triples is Graph's triples in the order they were generated, which
	// the graph, a set, does not keep: what datagen writes.
	Triples []rdf.Triple

	Users      []string
	Products   []string
	Retailers  []string
	Websites   []string
	Categories []string
}

// rng is a small deterministic xorshift generator so datasets are
// reproducible without math/rand.
type rng struct{ x uint64 }

func newRNG(seed uint64) *rng { return &rng{x: seed*2685821657736338717 + 1} }

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

// chance returns true with probability num/den.
func (r *rng) chance(num, den int) bool { return r.intn(den) < num }

// Options controls generation.
type Options struct {
	// Triples is the approximate target size; the generator derives
	// entity counts from it. Minimum ~500.
	Triples int
	// Seed makes generation deterministic.
	Seed uint64
}

// Property IRIs (short forms of the WatDiv vocabulary).
const (
	PropType       = "rdf:type"
	PropFollows    = "wsdbm:follows"
	PropFriendOf   = "wsdbm:friendOf"
	PropLikes      = "wsdbm:likes"
	PropSubscribes = "wsdbm:subscribes"
	PropCaption    = "sorg:caption"
	PropDescrip    = "sorg:description"
	PropProducedBy = "mfgr:producedBy"
	PropOffers     = "gr:offers"
	PropPrice      = "gr:price"
	PropReviewer   = "rev:reviewer"
	PropReviewsPrd = "rev:reviewsProduct"
	PropRating     = "rev:rating"
	PropEmail      = "sorg:email"
	PropAge        = "sorg:age"
	PropHomepage   = "foaf:homepage"
	PropLanguage   = "sorg:language"
	PropTitle      = "dc:title"
	PropUrl        = "sorg:url"
)

// Generate builds a dataset of roughly opts.Triples triples.
func Generate(opts Options) *Dataset {
	if opts.Triples < 500 {
		opts.Triples = 500
	}
	r := newRNG(opts.Seed | 1)
	// Rough budget: each user ≈ 6 triples, product ≈ 5, review ≈ 3,
	// offer ≈ 2. Solve for a user-dominated mix like WatDiv's.
	nUsers := opts.Triples / 12
	nProducts := opts.Triples / 25
	nReviews := opts.Triples / 20
	nOffers := opts.Triples / 25
	nRetailers := max(3, nProducts/20)
	nWebsites := max(3, nUsers/50)
	nCategories := max(4, nProducts/50)

	d := rdf.NewDict()
	var ts []rdf.Triple
	seen := make(map[rdf.Triple]bool)
	add := func(s, p, o rdf.Term) {
		if t := (rdf.Triple{S: d.Encode(s), P: d.Encode(p), O: d.Encode(o)}); !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	ds := &Dataset{}
	iri := rdf.NewIRI
	lit := rdf.NewLiteral

	for i := 0; i < nCategories; i++ {
		ds.Categories = append(ds.Categories, fmt.Sprintf("wsdbm:ProductCategory%d", i))
	}
	for i := 0; i < nRetailers; i++ {
		rt := fmt.Sprintf("wsdbm:Retailer%d", i)
		ds.Retailers = append(ds.Retailers, rt)
		add(iri(rt), iri(PropType), iri("wsdbm:Retailer"))
	}
	for i := 0; i < nWebsites; i++ {
		ws := fmt.Sprintf("wsdbm:Website%d", i)
		ds.Websites = append(ds.Websites, ws)
		add(iri(ws), iri(PropType), iri("wsdbm:Website"))
		add(iri(ws), iri(PropUrl), lit(fmt.Sprintf("http://site%d.example", i)))
		if r.chance(1, 2) {
			add(iri(ws), iri(PropLanguage), lit([]string{"en", "de", "fr", "zh"}[r.intn(4)]))
		}
	}
	for i := 0; i < nProducts; i++ {
		p := fmt.Sprintf("wsdbm:Product%d", i)
		ds.Products = append(ds.Products, p)
		add(iri(p), iri(PropType), iri(ds.Categories[r.intn(nCategories)]))
		add(iri(p), iri(PropCaption), lit(fmt.Sprintf("Product caption %d", i)))
		add(iri(p), iri(PropProducedBy), iri(ds.Retailers[r.intn(nRetailers)]))
		// Attribute diversity: only some products have descriptions.
		if r.chance(2, 5) {
			add(iri(p), iri(PropDescrip), lit(fmt.Sprintf("Description of product %d", i)))
		}
	}
	for i := 0; i < nUsers; i++ {
		u := fmt.Sprintf("wsdbm:User%d", i)
		ds.Users = append(ds.Users, u)
		add(iri(u), iri(PropType), iri("wsdbm:User"))
		// Social edges: Zipf-ish out-degree 1..4.
		follows := 1 + r.intn(4)
		for f := 0; f < follows; f++ {
			add(iri(u), iri(PropFollows), iri(fmt.Sprintf("wsdbm:User%d", r.intn(nUsers))))
		}
		if r.chance(1, 2) {
			add(iri(u), iri(PropFriendOf), iri(fmt.Sprintf("wsdbm:User%d", r.intn(nUsers))))
		}
		likes := r.intn(3)
		for l := 0; l < likes; l++ {
			add(iri(u), iri(PropLikes), iri(ds.Products[r.intn(nProducts)]))
		}
		if r.chance(1, 3) {
			add(iri(u), iri(PropSubscribes), iri(ds.Websites[r.intn(nWebsites)]))
		}
		if r.chance(1, 4) {
			add(iri(u), iri(PropEmail), lit(fmt.Sprintf("user%d@example.org", i)))
		}
		if r.chance(1, 3) {
			add(iri(u), iri(PropAge), lit(fmt.Sprintf("%d", 18+r.intn(60))))
		}
		if r.chance(1, 8) {
			add(iri(u), iri(PropHomepage), lit(fmt.Sprintf("http://user%d.example", i)))
		}
	}
	for i := 0; i < nReviews; i++ {
		rv := fmt.Sprintf("wsdbm:Review%d", i)
		add(iri(rv), iri(PropReviewer), iri(ds.Users[r.intn(nUsers)]))
		add(iri(rv), iri(PropReviewsPrd), iri(ds.Products[r.intn(nProducts)]))
		add(iri(rv), iri(PropRating), lit(fmt.Sprintf("%d", 1+r.intn(5))))
		if r.chance(1, 4) {
			add(iri(rv), iri(PropTitle), lit(fmt.Sprintf("Review title %d", i)))
		}
	}
	for i := 0; i < nOffers; i++ {
		rt := ds.Retailers[r.intn(nRetailers)]
		p := ds.Products[r.intn(nProducts)]
		add(iri(rt), iri(PropOffers), iri(p))
		add(iri(p), iri(PropPrice), lit(fmt.Sprintf("%d.99", 1+r.intn(500))))
	}
	ds.Triples = ts
	ds.Graph = rdf.NewFrozen(d, slices.Clone(ts))
	return ds
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
