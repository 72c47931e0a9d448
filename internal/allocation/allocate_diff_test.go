package allocation

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"rdffrag/internal/fragment"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// diffInput is one input of the differential test: a graph, a workload
// and the pipeline's thresholds up to selection.
type diffInput struct {
	name               string
	g                  *rdf.Graph
	w                  []*sparql.Graph
	theta, minSup, mul int
}

// checkSamePlacement allocates in for both strategies and every m, once
// by allocateRef and once by Allocate, each over a fragmentation of its
// own, and requires the same site of every fragment, the same fragments
// in the same order at every site and the same cold site.
func checkSamePlacement(t *testing.T, in diffInput, ms []int) {
	t.Helper()
	sel, hc := selectPatterns(t, in.g, in.w, in.theta, in.minSup, in.mul)
	for _, horizontal := range []bool{false, true} {
		build := func() *fragment.Fragmentation {
			if horizontal {
				return fragment.Horizontal(sel, in.w, hc, fragment.HorizontalOptions{})
			}
			return fragment.Vertical(sel, hc)
		}
		for _, m := range ms {
			want := allocateRef(build(), in.w, m)
			got := Allocate(build(), in.w, m)
			if !maps.Equal(got.SiteOf, want.SiteOf) || got.ColdSite != want.ColdSite ||
				!slices.EqualFunc(siteIDs(got), siteIDs(want), slices.Equal[[]int]) {
				t.Fatalf("%s, horizontal=%v, m=%d: placed %v (cold at %d), the reference %v (cold at %d)",
					in.name, horizontal, m, siteIDs(got), got.ColdSite, siteIDs(want), want.ColdSite)
			}
		}
	}
}

// siteIDs lists each site's fragment IDs in order: the two allocations
// compared are of two fragmentations built alike.
func siteIDs(a *Allocation) [][]int {
	out := make([][]int, len(a.Sites))
	for s, frags := range a.Sites {
		for _, f := range frags {
			out[s] = append(out[s], f.ID)
		}
	}
	return out
}

// randomInput builds a small random graph and workload from seed: a few
// predicates over a few dozen entities, and queries that instantiate a
// few random templates — chains and stars of one to three edges, some of
// whose vertices take a constant from a small pool — so that mining finds
// patterns, horizontal fragmentation finds minterms, and templates that
// share no fragment leave clusters with no affinity between them.
func randomInput(seed uint64) diffInput {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	g := rdf.NewGraph(nil)
	preds, ents := 3+r.IntN(4), 10+r.IntN(20)
	for range 60 + r.IntN(120) {
		g.AddTerms(rdf.NewIRI(fmt.Sprint("e", r.IntN(ents))), rdf.NewIRI(fmt.Sprint("p", r.IntN(preds))), rdf.NewIRI(fmt.Sprint("e", r.IntN(ents))))
	}
	type edge struct{ s, p, o int }
	type template struct {
		edges []edge
		slots []bool // vertex takes a constant
	}
	templates := make([]template, 2+r.IntN(4))
	for i := range templates {
		tp := &templates[i]
		tp.slots = []bool{false}
		for range 1 + r.IntN(3) {
			v := len(tp.slots)
			u := r.IntN(v)
			if r.IntN(2) == 0 {
				tp.edges = append(tp.edges, edge{u, r.IntN(preds), v})
			} else {
				tp.edges = append(tp.edges, edge{v, r.IntN(preds), u})
			}
			tp.slots = append(tp.slots, r.IntN(3) == 0)
		}
	}
	var w []*sparql.Graph
	for range 15 + r.IntN(30) {
		tp := templates[r.IntN(len(templates))]
		term := make([]string, len(tp.slots))
		for v, slot := range tp.slots {
			term[v] = fmt.Sprint("?v", v)
			if slot {
				term[v] = fmt.Sprint("<e", r.IntN(3), ">")
			}
		}
		var b strings.Builder
		b.WriteString("SELECT * WHERE { ")
		for _, e := range tp.edges {
			fmt.Fprintf(&b, "%s <p%d> %s . ", term[e.s], e.p, term[e.o])
		}
		b.WriteString("}")
		w = append(w, sparql.MustParse(g.Dict, b.String()))
	}
	return diffInput{name: fmt.Sprint("seed ", seed), g: g, w: w, theta: 1 + r.IntN(3), minSup: 2 + r.IntN(2), mul: 2 + r.IntN(3)}
}

// TestAllocateMatchesReference: Allocate, over explicit clusters, places
// every fragment where allocateRef does — on this package's fixtures, on
// a generated WatDiv input and on 300 random inputs, for both strategies
// and several site counts — and the inputs reach both the zero-affinity
// fallback and the sibling penalty.
func TestAllocateMatchesReference(t *testing.T) {
	refFallbacks, refPenalties = 0, 0
	ms := []int{1, 2, 3, 5, 8}
	g, w := coAccessInput()
	checkSamePlacement(t, diffInput{name: "co-access", g: g, w: w, theta: 2, minSup: 3, mul: 10}, ms)
	g, w = twoChainsInput()
	checkSamePlacement(t, diffInput{name: "two chains", g: g, w: w, theta: 2, minSup: 3, mul: 10}, ms)

	// The benchmark's generator and thresholds (1 % of the workload), at
	// a tenth of its size.
	ds := watdiv.Generate(watdiv.Options{Triples: 10000, Seed: 1})
	w, err := ds.GenerateWorkload(400, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSamePlacement(t, diffInput{name: "watdiv", g: ds.Graph, w: w, theta: 4, minSup: 4, mul: 3}, []int{1, 2, 3, 4, 7, 10, 16})

	for seed := range uint64(300) {
		checkSamePlacement(t, randomInput(seed), ms)
	}
	if refFallbacks == 0 || refPenalties == 0 {
		t.Errorf("the inputs took the zero-affinity fallback %d times and the sibling penalty %d times; want both", refFallbacks, refPenalties)
	}
	t.Logf("zero-affinity fallbacks %d, sibling penalties %d", refFallbacks, refPenalties)
}
