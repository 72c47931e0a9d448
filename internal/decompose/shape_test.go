package decompose_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rdffrag/internal/decompose"
	"rdffrag/internal/dict"
	"rdffrag/internal/plan"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
	"rdffrag/internal/watdiv"
)

// Differential tests for the shape/bind split: whatever query a Shape is
// bound to, the result must be what the one-pass oracle (oracle_test.go)
// computes for that query from scratch.

const drawsPerTemplate = 51 // one builds the shape, fifty are bound to it

var (
	watdivOnce sync.Once
	watdivEnvs [2]*testenv.Env // vertical, horizontal
	watdivData [2]*watdiv.Dataset
	watdivErr  error
)

// watdivEnv builds (once per test binary) the two WatDiv deployments.
func watdivEnv(t *testing.T, horizontal bool) (*testenv.Env, *watdiv.Dataset) {
	t.Helper()
	watdivOnce.Do(func() {
		for i, h := range []bool{false, true} {
			if watdivEnvs[i], watdivData[i], watdivErr = testenv.WatDiv(6000, h); watdivErr != nil {
				return
			}
		}
	})
	if watdivErr != nil {
		t.Fatalf("testenv.WatDiv: %v", watdivErr)
	}
	if horizontal {
		return watdivEnvs[1], watdivData[1]
	}
	return watdivEnvs[0], watdivData[0]
}

// instances returns, per template, drawsPerTemplate instantiations.
func instances(t *testing.T, ds *watdiv.Dataset) (names []string, byTemplate [][]*sparql.Graph) {
	t.Helper()
	ts := watdiv.Templates()
	qs, err := ds.GenerateWorkload(len(ts)*drawsPerTemplate, 7)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	byTemplate = make([][]*sparql.Graph, len(ts))
	for i, q := range qs {
		byTemplate[i%len(ts)] = append(byTemplate[i%len(ts)], q)
	}
	for _, tpl := range ts {
		names = append(names, tpl.Name)
	}
	return names, byTemplate
}

// routing is the site → fragment IDs map the engine derives from the
// relevant entries.
func routing(entries []*dict.Entry) map[int][]int {
	bySite := map[int][]int{}
	for _, e := range entries {
		bySite[e.Site] = append(bySite[e.Site], e.Fragment.ID)
	}
	return bySite
}

// sameAsOracle fails unless got is, field for field, the oracle's
// decomposition of q with the same join order and the same routing.
func sameAsOracle(t *testing.T, d *decompose.Decomposer, q *sparql.Graph, got *decompose.Decomposition) {
	t.Helper()
	want, err := oracleDecompose(d, q)
	if err != nil {
		t.Fatalf("oracle(%s): %v", q, err)
	}
	if len(got.Subqueries) != len(want.Subqueries) {
		t.Fatalf("%s: %d subqueries, oracle %d", q, len(got.Subqueries), len(want.Subqueries))
	}
	for i, sq := range got.Subqueries {
		if sq.Cold || sq.Global {
			if sq.Relevant != nil {
				t.Errorf("%s: cold/global subquery %d carries relevant entries", q, i)
			}
			continue
		}
		if sq.Relevant == nil {
			t.Fatalf("%s: pattern subquery %d was bound without relevant entries", q, i)
		}
		wantRoute := routing(d.Dict.RelevantEntries(want.Subqueries[i].Graph))
		if gotRoute := routing(sq.Relevant); !reflect.DeepEqual(gotRoute, wantRoute) {
			t.Errorf("%s: subquery %d routes to %v, oracle to %v", q, i, gotRoute, wantRoute)
		}
	}
	// The oracle leaves Relevant nil; everything else must deep-equal.
	stripped := &decompose.Decomposition{Cost: got.Cost}
	for _, sq := range got.Subqueries {
		c := *sq
		c.Relevant = nil
		stripped.Subqueries = append(stripped.Subqueries, &c)
	}
	if !reflect.DeepEqual(stripped, want) {
		t.Errorf("%s: decomposition differs from the oracle's\n got: %s\nwant: %s", q, render(stripped), render(want))
	}
	gotPlan, err := plan.Optimize(got)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	wantPlan, err := plan.Optimize(want)
	if err != nil {
		t.Fatalf("Optimize(oracle): %v", err)
	}
	if !reflect.DeepEqual(gotPlan, wantPlan) {
		t.Errorf("%s: plan %+v, oracle's %+v", q, gotPlan, wantPlan)
	}
}

func render(d *decompose.Decomposition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost %g:", d.Cost)
	for _, sq := range d.Subqueries {
		fmt.Fprintf(&b, " {%s | edges %v code %q cold %v global %v card %d}", sq.Graph, sq.EdgeIdx, sq.PatternCode, sq.Cold, sq.Global, sq.Card)
	}
	return b.String()
}

// TestShapeBoundToOtherInstanceMatchesOracle is the main differential:
// the shape of one instance of each WatDiv template, bound to fifty
// other constant draws of that template.
func TestShapeBoundToOtherInstanceMatchesOracle(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		env, ds := watdivEnv(t, horizontal)
		names, byTemplate := instances(t, ds)
		for _, naive := range []bool{false, true} {
			d := &decompose.Decomposer{Dict: env.Dict, HC: env.HC, Naive: naive}
			t.Run(fmt.Sprintf("horizontal=%v/naive=%v", horizontal, naive), func(t *testing.T) {
				pruned := 0
				for ti, qs := range byTemplate {
					shape, err := d.Shape(qs[0])
					if err != nil {
						t.Fatalf("%s: Shape: %v", names[ti], err)
					}
					for _, q := range qs[1:] {
						got, err := shape.Bind(q)
						if err != nil {
							t.Fatalf("%s: Bind(%s): %v", names[ti], q, err)
						}
						sameAsOracle(t, d, q, got)
						for _, sq := range got.Subqueries {
							if sq.Relevant != nil && len(sq.Relevant) < len(d.Dict.Lookup(sq.PatternCode)) {
								pruned++
							}
						}
					}
					// The one path: Decompose is Shape + Bind.
					direct, err := d.Decompose(qs[1])
					if err != nil {
						t.Fatalf("%s: Decompose: %v", names[ti], err)
					}
					sameAsOracle(t, d, qs[1], direct)
				}
				if horizontal && !naive && pruned == 0 {
					t.Error("no bound subquery pruned a fragment: the test exercises no minterm")
				}
			})
		}
	}
}

// parse parses text against the environment's dictionary.
func parse(env *testenv.Env, text string) *sparql.Graph {
	return sparql.MustParse(env.G.Dict, text)
}

// TestShapeSharedAcrossRenamedVariables: alpha-renamed variables have one
// structure, and a bound subquery speaks the caller's names.
func TestShapeSharedAcrossRenamedVariables(t *testing.T) {
	env, ds := watdivEnv(t, true)
	d := &decompose.Decomposer{Dict: env.Dict, HC: env.HC}
	a := parse(env, `SELECT ?p ?c WHERE { ?p <rdf:type> <`+ds.Categories[0]+`> . ?p <sorg:caption> ?c . ?p <mfgr:producedBy> <`+ds.Retailers[0]+`> . }`)
	b := parse(env, `SELECT ?item ?text WHERE { ?item <rdf:type> <`+ds.Categories[1]+`> . ?item <sorg:caption> ?text . ?item <mfgr:producedBy> <`+ds.Retailers[1]+`> . }`)
	shape, err := d.Shape(a)
	if err != nil {
		t.Fatalf("Shape: %v", err)
	}
	got, err := shape.Bind(b)
	if err != nil {
		t.Fatalf("Bind(renamed): %v", err)
	}
	sameAsOracle(t, d, b, got)
	vars := map[string]bool{}
	for _, sq := range got.Subqueries {
		for _, v := range sq.Graph.Vars() {
			vars[v] = true
		}
	}
	if !vars["item"] || !vars["text"] || vars["p"] || vars["c"] {
		t.Errorf("bound subqueries use variables %v, want the caller's item/text", vars)
	}
}

// TestShapeIndependentOfVariableNames: the names an instance happens to
// use — here the ones sparql.Generalize would pick for its own fresh
// variables — leave no trace in the shape other instances are bound to.
func TestShapeIndependentOfVariableNames(t *testing.T) {
	env, ds := watdivEnv(t, true)
	d := &decompose.Decomposer{Dict: env.Dict, HC: env.HC}
	a := parse(env, `SELECT * WHERE { ?g0 <wsdbm:likes> <`+ds.Products[0]+`> . ?g0 <sorg:age> ?g1 . }`)
	b := parse(env, `SELECT * WHERE { ?u <wsdbm:likes> <`+ds.Products[1]+`> . ?u <sorg:age> ?a . }`)
	for _, pair := range [][2]*sparql.Graph{{a, b}, {b, a}} {
		shape, err := d.Shape(pair[0])
		if err != nil {
			t.Fatalf("Shape(%s): %v", pair[0], err)
		}
		got, err := shape.Bind(pair[1])
		if err != nil {
			t.Fatalf("Bind(%s): %v", pair[1], err)
		}
		sameAsOracle(t, d, pair[1], got)
	}
}

// TestBindRefusesOtherStructure: a shape bound to a query of another
// structure — what a colliding cache key would hand it — is an error,
// never a plan for the wrong query. Each pair differs in exactly the
// thing a careless key would drop.
func TestBindRefusesOtherStructure(t *testing.T) {
	env, ds := watdivEnv(t, true)
	d := &decompose.Decomposer{Dict: env.Dict, HC: env.HC}
	u0, u1, p0 := "<"+ds.Users[0]+">", "<"+ds.Users[1]+">", "<"+ds.Products[0]+">"
	pairs := [][2]string{
		// Constant at the object vs at the subject.
		{`SELECT * WHERE { ?x <wsdbm:follows> ` + u0 + ` . }`, `SELECT * WHERE { ` + u0 + ` <wsdbm:follows> ?x . }`},
		// One constant at two positions vs two distinct constants.
		{`SELECT * WHERE { ` + u0 + ` <wsdbm:follows> ?x . ?x <wsdbm:follows> ` + u0 + ` . }`, `SELECT * WHERE { ` + u0 + ` <wsdbm:follows> ?x . ?x <wsdbm:follows> ` + u1 + ` . }`},
		// One variable at two positions vs two variables.
		{`SELECT * WHERE { ?x <wsdbm:follows> ?y . ?y <wsdbm:follows> ?x . }`, `SELECT * WHERE { ?x <wsdbm:follows> ?y . ?y <wsdbm:follows> ?z . }`},
		// Variable vs constant in one position.
		{`SELECT * WHERE { ?x <wsdbm:likes> ?p . }`, `SELECT * WHERE { ?x <wsdbm:likes> ` + p0 + ` . }`},
		// A predicate variable vs a constant predicate.
		{`SELECT * WHERE { ?x ?p ?y . }`, `SELECT * WHERE { ?x <wsdbm:likes> ?y . }`},
		// Another predicate.
		{`SELECT * WHERE { ?x <wsdbm:likes> ?y . }`, `SELECT * WHERE { ?x <wsdbm:follows> ?y . }`},
		// Hot vs cold property, and one more edge.
		{`SELECT * WHERE { ?x <wsdbm:likes> ?y . }`, `SELECT * WHERE { ?x <dc:title> ?y . }`},
		{`SELECT * WHERE { ?x <wsdbm:likes> ?y . }`, `SELECT * WHERE { ?x <wsdbm:likes> ?y . ?x <sorg:age> ?a . }`},
	}
	for _, pair := range pairs {
		a, b := parse(env, pair[0]), parse(env, pair[1])
		for _, dir := range [][2]*sparql.Graph{{a, b}, {b, a}} {
			shape, err := d.Shape(dir[0])
			if err != nil {
				t.Fatalf("Shape(%s): %v", dir[0], err)
			}
			if _, err := shape.Bind(dir[1]); err == nil {
				t.Errorf("shape of %q bound %q", dir[0], dir[1])
			}
			own, err := shape.Bind(dir[0])
			if err != nil {
				t.Fatalf("Bind(%s) to its own shape: %v", dir[0], err)
			}
			sameAsOracle(t, d, dir[0], own)
		}
	}
}

// TestShapeColdGlobalAndUnseenConstants covers the structures the
// templates do not: cold-only, mixed hot/cold, a predicate variable, and
// a constant no triple and no dictionary entry has ever carried. Each
// shape is built from one instance and bound to another.
func TestShapeColdGlobalAndUnseenConstants(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		env, ds := watdivEnv(t, horizontal)
		u0, u1 := "<"+ds.Users[0]+">", "<"+ds.Users[1]+">"
		cases := []struct {
			a, b                  string
			cold, global, pattern int // subqueries of each kind
		}{
			{`SELECT * WHERE { ?w <dc:title> ?t . }`, `SELECT * WHERE { ?site <dc:title> ?name . }`, 1, 0, 0},
			{`SELECT * WHERE { ` + u0 + ` <foaf:homepage> ?h . ?u <dc:title> ?t . }`, `SELECT * WHERE { ` + u1 + ` <foaf:homepage> ?h . ?u <dc:title> ?t . }`, 2, 0, 0},
			{`SELECT * WHERE { ?u <wsdbm:likes> ?p . ?u <foaf:homepage> ?h . ?p <sorg:caption> ?c . }`, `SELECT * WHERE { ?a <wsdbm:likes> ?b . ?a <foaf:homepage> ?c . ?b <sorg:caption> ?d . }`, 1, 0, -1},
			{`SELECT * WHERE { ` + u0 + ` ?p ?o . ?o <sorg:caption> ?c . }`, `SELECT * WHERE { ` + u1 + ` ?q ?o . ?o <sorg:caption> ?c . }`, 0, 1, 1},
			{`SELECT * WHERE { ?u <wsdbm:likes> ` + "<" + ds.Products[0] + ">" + ` . ?u <sorg:age> ?a . }`, `SELECT * WHERE { ?u <wsdbm:likes> <wsdbm:ProductNobodyEverSaw> . ?u <sorg:age> ?a . }`, 0, 0, -1},
		}
		for _, naive := range []bool{false, true} {
			d := &decompose.Decomposer{Dict: env.Dict, HC: env.HC, Naive: naive}
			for _, c := range cases {
				a, b := parse(env, c.a), parse(env, c.b)
				shape, err := d.Shape(a)
				if err != nil {
					t.Fatalf("Shape(%s): %v", a, err)
				}
				got, err := shape.Bind(b)
				if err != nil {
					t.Fatalf("Bind(%s): %v", b, err)
				}
				sameAsOracle(t, d, b, got)
				cold, global, pattern := 0, 0, 0
				for _, sq := range got.Subqueries {
					switch {
					case sq.Cold:
						cold++
					case sq.Global:
						global++
					default:
						pattern++
					}
				}
				if cold != c.cold || global != c.global || (c.pattern >= 0 && pattern != c.pattern) || pattern+cold+global == 0 {
					t.Errorf("%s: %d cold, %d global, %d pattern subqueries; want %d, %d, %d (-1: any)", b, cold, global, pattern, c.cold, c.global, c.pattern)
				}
			}
		}
	}
}

// TestShapeHitPlansWithLiveEstimates: a shape built before an update
// batch binds with the statistics as they stand after it — a cached
// shape does not freeze the estimates of the moment it was first
// planned, the way a cached plan did.
func TestShapeHitPlansWithLiveEstimates(t *testing.T) {
	// A private environment: the test grows a fragment.
	env, _, err := testenv.WatDiv(3000, false)
	if err != nil {
		t.Fatalf("testenv.WatDiv: %v", err)
	}
	d := &decompose.Decomposer{Dict: env.Dict, HC: env.HC}
	q := parse(env, `SELECT * WHERE { ?u <wsdbm:follows> ?v . ?v <wsdbm:friendOf> ?w . }`)
	shape, err := d.Shape(q)
	if err != nil {
		t.Fatalf("Shape: %v", err)
	}
	before, err := shape.Bind(q)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	sameAsOracle(t, d, q, before)

	// Double the live size of every fragment the plan reads.
	follows := env.G.Dict.Encode(rdf.NewIRI("wsdbm:follows"))
	for _, sq := range before.Subqueries {
		for _, e := range sq.Relevant {
			g := e.Fragment.Graph
			for i, n := 0, g.NumTriples(); i < n; i++ {
				g.Add(rdf.Triple{
					S: env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("wsdbm:NewUser%d", i))),
					P: follows,
					O: env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("wsdbm:NewUser%d", i+1))),
				})
			}
		}
	}
	after, err := shape.Bind(q)
	if err != nil {
		t.Fatalf("Bind after the update: %v", err)
	}
	sameAsOracle(t, d, q, after)
	if after.Cost <= before.Cost {
		t.Errorf("cost %g before the fragments doubled, %g after: the shape hit planned with stale estimates", before.Cost, after.Cost)
	}
}

// TestShapeBindConcurrently binds one shared shape from eight goroutines
// (run under -race in CI): Bind may only read the shape.
func TestShapeBindConcurrently(t *testing.T) {
	env, ds := watdivEnv(t, true)
	_, byTemplate := instances(t, ds)
	d := &decompose.Decomposer{Dict: env.Dict, HC: env.HC}
	for _, qs := range byTemplate[:8] { // L1..L5, S1..S3
		shape, err := d.Shape(qs[0])
		if err != nil {
			t.Fatalf("Shape: %v", err)
		}
		want := make([]*decompose.Decomposition, len(qs))
		for i, q := range qs {
			if want[i], err = shape.Bind(q); err != nil {
				t.Fatalf("Bind: %v", err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range qs {
					k := (i + g) % len(qs)
					got, err := shape.Bind(qs[k])
					if err != nil {
						t.Errorf("concurrent Bind: %v", err)
						return
					}
					if !reflect.DeepEqual(got, want[k]) {
						t.Errorf("concurrent Bind of %s differs from the sequential one", qs[k])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
