package fragment

import (
	"testing"

	"rdffrag/internal/fap"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// figure1Graph approximates the paper's running example: philosophers with
// name/mainInterest/influencedBy/placeOfDeath plus rarely-queried
// properties (wappen, viaf, imageSkyline).
func figure1Graph() *rdf.Graph {
	g := rdf.NewGraph(nil)
	add := func(s, p, o string) { g.AddTerms(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewIRI(o)) }
	lit := func(s, p, o string) { g.AddTerms(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewLiteral(o)) }
	add("Aristotle", "influencedBy", "Plato")
	add("Aristotle", "mainInterest", "Ethics")
	lit("Aristotle", "name", "Aristotle")
	add("Aristotle", "placeOfDeath", "Chalcis")
	add("Friedrich_Nietzsche", "influencedBy", "Aristotle")
	add("Friedrich_Nietzsche", "mainInterest", "Ethics")
	lit("Friedrich_Nietzsche", "name", "Friedrich Nietzsche")
	add("Friedrich_Nietzsche", "placeOfDeath", "Weimar")
	add("Max_Horkheimer", "influencedBy", "Karl_Marx")
	add("Max_Horkheimer", "mainInterest", "Social_theory")
	lit("Max_Horkheimer", "name", "Max Horkheimer")
	add("Boethius", "mainInterest", "Religion")
	lit("Boethius", "name", "Boethius")
	add("Boethius", "placeOfDeath", "Pavia")
	add("Pavia", "country", "Italy")
	lit("Pavia", "postalCode", "27100")
	add("Chalcis", "country", "Greece")
	lit("Chalcis", "postalCode", "341 00")
	// Cold properties: never queried.
	add("Weimar", "wappen", "WappenWeimar.svg")
	lit("Max_Horkheimer", "viaf", "100218964")
	add("Chalcis", "imageSkyline", "Chalkida.JPG")
	return g
}

func figure2Workload(d *rdf.Dict) []*sparql.Graph {
	var w []*sparql.Graph
	// p1-like: country + postalCode star.
	for i := 0; i < 8; i++ {
		w = append(w, sparql.MustParse(d,
			`SELECT ?x WHERE { ?x <country> ?c . ?x <postalCode> ?z . }`))
	}
	// p2-like: name + placeOfDeath.
	for i := 0; i < 7; i++ {
		w = append(w, sparql.MustParse(d,
			`SELECT ?x WHERE { ?x <name> ?n . ?x <placeOfDeath> ?p . }`))
	}
	// p3-like: name + influencedBy constant + mainInterest constant.
	for i := 0; i < 6; i++ {
		w = append(w, sparql.MustParse(d,
			`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Aristotle> . ?x <mainInterest> <Ethics> . }`))
	}
	for i := 0; i < 4; i++ {
		w = append(w, sparql.MustParse(d,
			`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Karl_Marx> . ?x <mainInterest> ?m . }`))
	}
	return w
}

func buildSelection(t *testing.T, g *rdf.Graph, w []*sparql.Graph, hc *HotCold) *fap.Selection {
	t.Helper()
	ps := (&mining.Miner{MinSup: 3}).Mine(w)
	sel, err := (&fap.Selector{StorageCapacity: 10 * hc.Hot.NumTriples()}).Select(ps, w, hc.Hot)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	return sel
}

func TestSplitHotCold(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	hc := SplitHotCold(g, w, 2)
	if hc.Hot.NumTriples()+hc.Cold.NumTriples() != g.NumTriples() {
		t.Fatalf("hot+cold = %d+%d != %d", hc.Hot.NumTriples(), hc.Cold.NumTriples(), g.NumTriples())
	}
	wappen, _ := g.Dict.Lookup(rdf.NewIRI("wappen"))
	if hc.FreqProps[wappen] {
		t.Error("wappen should be infrequent")
	}
	name, _ := g.Dict.Lookup(rdf.NewIRI("name"))
	if !hc.FreqProps[name] {
		t.Error("name should be frequent")
	}
	// All cold triples have infrequent properties.
	for _, tr := range hc.Cold.Triples() {
		if hc.FreqProps[tr.P] {
			t.Errorf("hot property %v in cold graph", g.Dict.Decode(tr.P))
		}
	}
	// The split counts the graph it divides, a hot triple parked in the
	// cold graph — the cold fragment's — once.
	if hc.NumTriples() != g.NumTriples() {
		t.Errorf("the split counts %d triples of %d", hc.NumTriples(), g.NumTriples())
	}
	parked := rdf.Triple{S: g.Dict.Encode(rdf.NewIRI("Parked")), P: name, O: g.Dict.Encode(rdf.NewLiteral("Parked"))}
	hc.Hot.Add(parked)
	hc.Cold.Add(parked)
	if hc.NumTriples() != g.NumTriples()+1 {
		t.Errorf("with a parked triple the split counts %d triples of %d", hc.NumTriples(), g.NumTriples()+1)
	}
}

func TestVerticalCoversHotGraph(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	hc := SplitHotCold(g, w, 2)
	sel := buildSelection(t, g, w, hc)
	fr := Vertical(sel, hc)
	if missing := coversHotGraph(fr); len(missing) != 0 {
		t.Fatalf("vertical fragmentation misses %d hot edges", len(missing))
	}
	if fr.Cold == nil || fr.Cold.Graph.NumTriples() != hc.Cold.NumTriples() {
		t.Error("cold fragment wrong")
	}
	// Redundancy must be >= 1 (overlap allowed) and bounded.
	r := fr.Redundancy(g)
	if r < 1.0 {
		t.Errorf("redundancy %f < 1", r)
	}
}

func TestVerticalFragmentContents(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	hc := SplitHotCold(g, w, 2)
	sel := buildSelection(t, g, w, hc)
	fr := Vertical(sel, hc)

	// Find a multi-edge fragment for the country+postalCode pattern; its
	// graph must contain Pavia and Chalcis edges but no philosopher names.
	var target *Fragment
	for _, f := range fr.Fragments {
		if f.Pattern.Size() == 2 {
			names := map[string]bool{}
			for _, e := range f.Pattern.Graph.Edges {
				names[g.Dict.Decode(e.Pred).Value] = true
			}
			if names["country"] && names["postalCode"] {
				target = f
			}
		}
	}
	if target == nil {
		t.Skip("country+postalCode pattern not selected at this storage setting")
	}
	if target.Size != 4 || target.Edges.Len() != 4 {
		t.Errorf("fragment has %d triples (size %d), want 4 (2 cities × 2 props)", target.Edges.Len(), target.Size)
	}
}

func TestHorizontalCoversHotGraph(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	hc := SplitHotCold(g, w, 2)
	sel := buildSelection(t, g, w, hc)
	fr := Horizontal(sel, w, hc, HorizontalOptions{})
	if missing := coversHotGraph(fr); len(missing) != 0 {
		for _, m := range missing {
			t.Logf("missing: %s", g.TripleString(m))
		}
		t.Fatalf("horizontal fragmentation misses %d hot edges", len(missing))
	}
}

func TestHorizontalSplitsByConstant(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	hc := SplitHotCold(g, w, 2)
	sel := buildSelection(t, g, w, hc)
	fr := horizontal(sel, w, hc, 2)

	// Some fragment must carry a minterm with an equality constraint on
	// Aristotle or Karl_Marx (harvested from the workload constants).
	aristotle, _ := g.Dict.Lookup(rdf.NewIRI("Aristotle"))
	karl, _ := g.Dict.Lookup(rdf.NewIRI("Karl_Marx"))
	foundEq := false
	for _, f := range fr.Fragments {
		if f.Minterm == nil {
			continue
		}
		for _, c := range f.Minterm.Constraints {
			if c.Equal && (c.Value == aristotle || c.Value == karl) {
				foundEq = true
			}
		}
	}
	if !foundEq {
		t.Error("no equality minterm harvested from workload constants")
	}
	// Horizontal fragments of one pattern with equality vs negation must
	// not share matched triples for the constrained vertex... weaker but
	// checkable: fragments are non-empty.
	for _, f := range fr.Fragments {
		if f.Size == 0 || f.Edges.Len() == 0 {
			t.Errorf("empty fragment %d survived", f.ID)
		}
	}
}

func TestMintermSatisfiesAndFilter(t *testing.T) {
	d := rdf.NewDict()
	pg := sparql.MustParse(d, `SELECT * WHERE { ?x <p> ?y . }`)
	p := &mining.Pattern{Graph: pg, Code: mining.CanonicalCode(pg)}
	v1 := d.Encode(rdf.NewIRI("v1"))
	v2 := d.Encode(rdf.NewIRI("v2"))
	mt := &Minterm{Pattern: p, Constraints: []Constraint{
		{Vertex: 0, Equal: true, Value: v1},
		{Vertex: 1, Equal: false, Value: v2},
	}}
	f := mt.VertexFilter()
	if !f(0, v1) || !f(1, v1) {
		t.Error("binding satisfying minterm rejected")
	}
	if f(0, v2) {
		t.Error("binding violating equality accepted")
	}
	if f(1, v2) {
		t.Error("binding violating inequality accepted")
	}
}

func TestEnumerateMintermsSkipsContradictions(t *testing.T) {
	d := rdf.NewDict()
	pg := sparql.MustParse(d, `SELECT * WHERE { ?x <p> ?y . }`)
	p := &mining.Pattern{Graph: pg, Code: mining.CanonicalCode(pg)}
	preds := []simplePred{
		{vertex: 0, value: 10, count: 5},
		{vertex: 0, value: 11, count: 4},
	}
	ms := enumerateMinterms(p, preds)
	// 4 combinations minus the (v0=10 ∧ v0=11) contradiction = 3.
	if len(ms) != 3 {
		t.Fatalf("minterms = %d, want 3", len(ms))
	}
}

func TestHorizontalMoreFragmentsThanVertical(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	hc := SplitHotCold(g, w, 2)
	sel := buildSelection(t, g, w, hc)
	vf := Vertical(sel, hc)
	hf := Horizontal(sel, w, hc, HorizontalOptions{})
	if len(hf.Fragments) < len(vf.Fragments) {
		t.Errorf("horizontal fragments (%d) fewer than vertical (%d)",
			len(hf.Fragments), len(vf.Fragments))
	}
}

func TestRedundancyMetric(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	hc := SplitHotCold(g, w, 2)
	sel := buildSelection(t, g, w, hc)
	vf := Vertical(sel, hc)
	hf := Horizontal(sel, w, hc, HorizontalOptions{})
	rv, rh := vf.Redundancy(g), hf.Redundancy(g)
	if rv < 1 || rh < 1 {
		t.Errorf("redundancy below 1: VF=%f HF=%f", rv, rh)
	}
	if rv > 5 || rh > 5 {
		t.Errorf("implausible redundancy: VF=%f HF=%f", rv, rh)
	}
}

func TestHotColdThetaSweep(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	prevHot := g.NumTriples() + 1
	for _, theta := range []int{1, 3, 7, 100} {
		hc := SplitHotCold(g, w, theta)
		if hc.Hot.NumTriples() > prevHot {
			t.Errorf("hot graph grew as theta rose (theta=%d)", theta)
		}
		prevHot = hc.Hot.NumTriples()
	}
}

// TestRelevanceSharesShapeNotConstants: two instances of one template
// share their embeddings, found once, yet a minterm on the constant's
// position is relevant to the instance whose constant it names and not
// to the other.
func TestRelevanceSharesShapeNotConstants(t *testing.T) {
	d := rdf.NewDict()
	pg := sparql.MustParse(d, `SELECT * WHERE { ?x <name> ?n . ?x <influencedBy> ?y . }`)
	p := &mining.Pattern{Graph: pg, Code: mining.CanonicalCode(pg)}
	y := pg.AddVertex(sparql.Vertex{Var: "y"})
	f := &Fragment{Kind: HorizontalKind, Pattern: p, Minterm: &Minterm{
		Pattern:     p,
		Constraints: []Constraint{{Vertex: y, Equal: true, Value: d.Encode(rdf.NewIRI("Plato"))}},
	}}
	plato := sparql.MustParse(d, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Plato> . }`)
	kant := sparql.MustParse(d, `SELECT ?n WHERE { ?a <name> ?n . ?a <influencedBy> <Kant> . }`)
	if string(sparql.AppendShapeKey(nil, plato)) != string(sparql.AppendShapeKey(nil, kant)) {
		t.Fatal("two instances of one template have different shape keys")
	}

	var rel Relevance
	a, b := rel.embeddings(pg, plato), rel.embeddings(pg, kant)
	if len(a) != 1 || len(b) != 1 || &a[0] != &b[0] {
		t.Fatalf("embeddings %v and %v: want one map, found once for the shape", a, b)
	}
	if !rel.RelevantTo(f, plato) {
		t.Error("the minterm's own constant: not relevant")
	}
	if rel.RelevantTo(f, kant) {
		t.Error("a constant the minterm excludes: relevant")
	}
	f.Minterm.Constraints[0].Equal = false
	if rel.RelevantTo(f, plato) || !rel.RelevantTo(f, kant) {
		t.Error("negated minterm: relevance not inverted")
	}
}

// TestRelevanceConstantPatternKey: a pattern with a constant vertex
// embeds only where the query has that constant, so its embeddings are
// kept per constant as well as per shape — in whichever order the
// queries come.
func TestRelevanceConstantPatternKey(t *testing.T) {
	d := rdf.NewDict()
	pg := sparql.MustParse(d, `SELECT * WHERE { ?x <influencedBy> <Plato> . }`)
	plato := sparql.MustParse(d, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Plato> . }`)
	kant := sparql.MustParse(d, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Kant> . }`)
	for _, order := range [][]*sparql.Graph{{plato, kant}, {kant, plato}} {
		var rel Relevance
		for _, q := range order {
			got := len(rel.embeddings(pg, q))
			if want := len(sparql.FindEmbeddings(pg, q, 0)); got != want {
				t.Errorf("%v: %d embeddings, want %d", q, got, want)
			}
		}
	}
	if len(sparql.FindEmbeddings(pg, plato, 0)) != 1 || len(sparql.FindEmbeddings(pg, kant, 0)) != 0 {
		t.Fatal("the fixture does not tell the constants apart")
	}
}
