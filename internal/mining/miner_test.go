package mining

import (
	"fmt"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// workload builds a mixed workload: many star queries over name+interest,
// some chains, a few one-off queries with rare predicates.
func testWorkload(d *rdf.Dict) []*sparql.Graph {
	var w []*sparql.Graph
	for i := 0; i < 10; i++ {
		w = append(w, sparql.MustParse(d, fmt.Sprintf(
			`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> <I%d> . }`, i)))
	}
	for i := 0; i < 6; i++ {
		w = append(w, sparql.MustParse(d,
			`SELECT ?x WHERE { ?x <placeOfDeath> ?p . ?p <country> ?c . }`))
	}
	w = append(w, sparql.MustParse(d, `SELECT ?x WHERE { ?x <wappen> ?w . }`))
	return w
}

func TestNormalizeGroupsTemplates(t *testing.T) {
	d := rdf.NewDict()
	w := testWorkload(d)
	graphs, weights := Normalize(w)
	// All 10 star queries normalize to the same graph.
	if len(graphs) != 3 {
		t.Fatalf("unique graphs = %d, want 3", len(graphs))
	}
	total := 0
	maxW := 0
	for _, wt := range weights {
		total += wt
		if wt > maxW {
			maxW = wt
		}
	}
	if total != 17 {
		t.Errorf("total weight = %d, want 17", total)
	}
	if maxW != 10 {
		t.Errorf("max weight = %d, want 10 (star template)", maxW)
	}
}

func TestMineFindsFrequentPatterns(t *testing.T) {
	d := rdf.NewDict()
	w := testWorkload(d)
	ps := (&Miner{MinSup: 5}).Mine(w)
	if len(ps) == 0 {
		t.Fatal("no patterns mined")
	}
	// The 2-edge star (name + mainInterest) must be frequent with support 10.
	star := sparql.MustParse(d, `SELECT * WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`).Generalize()
	starCode := CanonicalCode(star)
	var found *Pattern
	for _, p := range ps {
		if p.Code == starCode {
			found = p
		}
	}
	if found == nil {
		t.Fatalf("star pattern not mined; got %d patterns", len(ps))
	}
	if found.Support != 10 {
		t.Errorf("star support = %d, want 10", found.Support)
	}
	// The rare 'wappen' pattern (support 1) must be absent.
	rare := CanonicalCode(sparql.MustParse(d, `SELECT * WHERE { ?x <wappen> ?w . }`).Generalize())
	for _, p := range ps {
		if p.Code == rare {
			t.Error("infrequent pattern leaked into results")
		}
	}
}

func TestMineAntiMonotone(t *testing.T) {
	d := rdf.NewDict()
	w := testWorkload(d)
	ps := (&Miner{MinSup: 3}).Mine(w)
	// Every sub-pattern of a frequent pattern must have >= its support.
	bySize := map[int][]*Pattern{}
	for _, p := range ps {
		bySize[p.Size()] = append(bySize[p.Size()], p)
	}
	for _, big := range bySize[2] {
		for _, small := range bySize[1] {
			if sparql.Embeds(small.Graph, big.Graph) && small.Support < big.Support {
				t.Errorf("anti-monotonicity violated: %s sup=%d inside %s sup=%d",
					small.Code, small.Support, big.Code, big.Support)
			}
		}
	}
}

func TestMineMinSupSweep(t *testing.T) {
	d := rdf.NewDict()
	w := testWorkload(d)
	prev := -1
	for _, sup := range []int{1, 3, 6, 11} {
		n := len((&Miner{MinSup: sup}).Mine(w))
		if prev >= 0 && n > prev {
			t.Errorf("pattern count grew as minSup rose: sup=%d n=%d prev=%d", sup, n, prev)
		}
		prev = n
	}
	// With minSup above the workload size nothing is frequent.
	if n := len((&Miner{MinSup: 100}).Mine(w)); n != 0 {
		t.Errorf("minSup=100 still mined %d patterns", n)
	}
}

func TestMineMaxEdges(t *testing.T) {
	d := rdf.NewDict()
	var w []*sparql.Graph
	for i := 0; i < 5; i++ {
		w = append(w, sparql.MustParse(d,
			`SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?e . }`))
	}
	ps := (&Miner{MinSup: 2, MaxEdges: 2}).Mine(w)
	for _, p := range ps {
		if p.Size() > 2 {
			t.Errorf("pattern exceeds MaxEdges: %s", p.Code)
		}
	}
}

func TestCoverage(t *testing.T) {
	d := rdf.NewDict()
	w := testWorkload(d)
	ps := (&Miner{MinSup: 5}).Mine(w)
	cov := Coverage(ps, w)
	// 16/17 queries contain a frequent pattern (only 'wappen' misses).
	want := 16.0 / 17.0
	if cov < want-1e-9 || cov > want+1e-9 {
		t.Errorf("coverage = %f, want %f", cov, want)
	}
	if Coverage(nil, w) != 0 {
		t.Error("empty pattern set should cover nothing")
	}
	if Coverage(ps, nil) != 0 {
		t.Error("empty workload coverage should be 0")
	}
}

func TestPatternContainedIn(t *testing.T) {
	d := rdf.NewDict()
	w := testWorkload(d)
	ps := (&Miner{MinSup: 5}).Mine(w)
	q := sparql.MustParse(d, `SELECT ?x WHERE { ?x <name> "Aristotle" . ?x <mainInterest> ?i . ?x <extra> ?e . }`)
	gen := q.Generalize()
	anyHit := false
	for _, p := range ps {
		if sparql.Embeds(p.Graph, gen) {
			anyHit = true
		}
	}
	if !anyHit {
		t.Error("no mined pattern contained in a superset query")
	}
}
