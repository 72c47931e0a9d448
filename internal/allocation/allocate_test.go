package allocation

import (
	"fmt"
	"maps"
	"testing"

	"rdffrag/internal/fap"
	"rdffrag/internal/fragment"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

func buildFragmentation(t *testing.T) (*fragment.Fragmentation, []*sparql.Graph, *rdf.Graph) {
	t.Helper()
	g, w := coAccessInput()
	sel, hc := selectPatterns(t, g, w, 2, 3, 10)
	return fragment.Vertical(sel, hc), w, g
}

// coAccessInput is a graph of persons and cities and a workload that
// co-accesses name+mainInterest, and separately
// placeOfDeath+country+postalCode.
func coAccessInput() (*rdf.Graph, []*sparql.Graph) {
	g := rdf.NewGraph(nil)
	add := func(s, p, o string) { g.AddTerms(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewIRI(o)) }
	for i := 0; i < 30; i++ {
		s := string(rune('A' + i%26))
		add("p"+s, "name", "n"+s)
		add("p"+s, "mainInterest", "i"+s)
		add("p"+s, "placeOfDeath", "c"+s)
		add("c"+s, "country", "Italy")
		add("c"+s, "postalCode", "z"+s)
	}
	d := g.Dict
	var w []*sparql.Graph
	for i := 0; i < 10; i++ {
		w = append(w, sparql.MustParse(d, `SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`))
	}
	for i := 0; i < 8; i++ {
		w = append(w, sparql.MustParse(d, `SELECT ?x WHERE { ?x <placeOfDeath> ?p . ?p <country> ?c . ?p <postalCode> ?z . }`))
	}
	return g, w
}

// selectPatterns runs the pipeline up to Algorithm 1: the hot/cold split
// at theta, mining at minSup, and selection within mul times the hot
// graph's size.
func selectPatterns(t *testing.T, g *rdf.Graph, w []*sparql.Graph, theta, minSup, mul int) (*fap.Selection, *fragment.HotCold) {
	t.Helper()
	hc := fragment.SplitHotCold(g, w, theta)
	sel, err := (&fap.Selector{StorageCapacity: mul * hc.Hot.NumTriples()}).Select((&mining.Miner{MinSup: minSup}).Mine(w), w, hc.Hot)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	return sel, hc
}

func TestAffinityCoAccess(t *testing.T) {
	fr, w, _ := buildFragmentation(t)
	aff := Affinity(fr.Fragments, w)
	if len(aff) == 0 {
		t.Fatal("no affinity computed")
	}
	// Every affinity must be positive and bounded by the workload size.
	for k, v := range aff {
		if v <= 0 || v > len(w) {
			t.Errorf("affinity %v = %d out of range", k, v)
		}
	}
}

func TestAllocatePartitionsAllFragments(t *testing.T) {
	fr, w, _ := buildFragmentation(t)
	const m = 4
	alloc := Allocate(fr, w, m)
	if len(alloc.Sites) != m {
		t.Fatalf("sites = %d, want %d", len(alloc.Sites), m)
	}
	// Disjoint and complete: every hot fragment on exactly one site.
	seen := make(map[int]int)
	for s, site := range alloc.Sites {
		for _, f := range site {
			if prev, ok := seen[f.ID]; ok {
				t.Errorf("fragment %d on sites %d and %d", f.ID, prev, s)
			}
			seen[f.ID] = s
		}
	}
	want := len(fr.Fragments)
	if fr.Cold != nil && fr.Cold.Graph.NumTriples() > 0 {
		want++
	}
	if len(seen) != want {
		t.Errorf("allocated %d fragments, want %d", len(seen), want)
	}
	// SiteOf agrees with Sites.
	for id, s := range alloc.SiteOf {
		if seen[id] != s {
			t.Errorf("SiteOf[%d]=%d but found on %d", id, s, seen[id])
		}
	}
}

func TestAllocateAffineFragmentsColocated(t *testing.T) {
	fr, w, g := buildFragmentation(t)
	alloc := Allocate(fr, w, 2)
	// The one-edge fragments for country and postalCode are co-accessed by
	// 8 queries; with only 2 sites they should land together.
	country, _ := g.Dict.Lookup(rdf.NewIRI("country"))
	postal, _ := g.Dict.Lookup(rdf.NewIRI("postalCode"))
	siteOfPred := func(p rdf.ID) int {
		for _, f := range fr.Fragments {
			if f.Pattern.Size() == 1 && f.Pattern.Graph.Edges[0].Pred == p {
				return alloc.SiteOf[f.ID]
			}
		}
		t.Fatalf("one-edge fragment for predicate %d not found", p)
		return -1
	}
	if siteOfPred(country) != siteOfPred(postal) {
		t.Error("strongly affine fragments placed on different sites")
	}
}

func TestAllocateSingleSite(t *testing.T) {
	fr, w, _ := buildFragmentation(t)
	alloc := Allocate(fr, w, 1)
	if len(alloc.Sites) != 1 {
		t.Fatalf("sites = %d", len(alloc.Sites))
	}
	if alloc.Balance() != 1.0 {
		t.Errorf("single-site balance = %f", alloc.Balance())
	}
}

func TestAllocateMoreSitesThanFragments(t *testing.T) {
	fr, w, _ := buildFragmentation(t)
	m := len(fr.Fragments) + 5
	alloc := Allocate(fr, w, m)
	if len(alloc.Sites) != m {
		t.Fatalf("sites = %d, want %d", len(alloc.Sites), m)
	}
	nonEmpty := 0
	for _, s := range alloc.Sites {
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("all sites empty")
	}
}

func TestBalanceMetric(t *testing.T) {
	fr, w, _ := buildFragmentation(t)
	alloc := Allocate(fr, w, 3)
	b := alloc.Balance()
	if b < 1.0 {
		t.Errorf("balance %f < 1", b)
	}
	if b > float64(len(alloc.Sites)) {
		t.Errorf("balance %f exceeds site count", b)
	}
}

func TestColdFragmentPlaced(t *testing.T) {
	fr, w, _ := buildFragmentation(t)
	if fr.Cold == nil || fr.Cold.Graph.NumTriples() == 0 {
		t.Skip("no cold data in this setup")
	}
	alloc := Allocate(fr, w, 3)
	if alloc.ColdSite < 0 || alloc.ColdSite >= 3 {
		t.Errorf("cold site = %d", alloc.ColdSite)
	}
}

// TestAllocateBreaksTiesDeterministically: two chains of predicates, each
// queried as often as the other, give two cluster pairs of equal density
// and equal combined load. Which one merges must not depend on the order
// a map happens to be ranged in: every `rdffrag site` process fragments
// and allocates for itself, and two processes that disagree on where a
// fragment lives cannot answer together.
func TestAllocateBreaksTiesDeterministically(t *testing.T) {
	g, w := twoChainsInput()
	sel, hc := selectPatterns(t, g, w, 2, 3, 10)
	fr := fragment.Vertical(sel, hc)
	const m = 5
	if len(fr.Fragments) <= m {
		t.Fatalf("setup: %d fragments for %d sites leave nothing to merge", len(fr.Fragments), m)
	}
	want := Allocate(fr, w, m).SiteOf
	for i := 0; i < 64; i++ {
		if got := Allocate(fragment.Vertical(sel, hc), w, m).SiteOf; !maps.Equal(got, want) {
			t.Fatalf("call %d placed the fragments %v, the first call %v", i+2, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("allocating a placed fragmentation again did not panic")
		}
	}()
	Allocate(fr, w, m)
}

// twoChainsInput is two chains of predicates, a-b and c-d, each queried
// as often as the other.
func twoChainsInput() (*rdf.Graph, []*sparql.Graph) {
	g := rdf.NewGraph(nil)
	for i := 0; i < 20; i++ {
		for _, chain := range [][2]string{{"a", "b"}, {"c", "d"}} {
			s, m, o := fmt.Sprintf("%s-s%d", chain[0], i), fmt.Sprintf("%s-m%d", chain[0], i), fmt.Sprintf("%s-o%d", chain[0], i)
			g.AddTerms(rdf.NewIRI(s), rdf.NewIRI(chain[0]), rdf.NewIRI(m))
			g.AddTerms(rdf.NewIRI(m), rdf.NewIRI(chain[1]), rdf.NewIRI(o))
		}
	}
	var w []*sparql.Graph
	for i := 0; i < 5; i++ {
		w = append(w,
			sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <a> ?y . ?y <b> ?z . }`),
			sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <c> ?y . ?y <d> ?z . }`))
	}
	return g, w
}
