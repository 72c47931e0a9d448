package dict_test

import (
	"fmt"
	"slices"
	"testing"

	"rdffrag/internal/dict"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

// TestBuildEntries: an entry's size is its fragment's, and its
// cardinality — counted over the hot graph, under the minterm's filter for
// a horizontal fragment — is what counting the pattern's matches within
// the fragment's own triples gives, since every match lies in them.
func TestBuildEntries(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		env, err := testenv.Build(testenv.Options{Horizontal: horizontal})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		d := env.Dict
		if len(d.Entries()) != len(env.Frag.Fragments) {
			t.Fatalf("entries = %d, fragments = %d", len(d.Entries()), len(env.Frag.Fragments))
		}
		for i, e := range d.Entries() {
			f := e.Fragment
			if e.Site < 0 {
				t.Errorf("fragment %d unallocated in dictionary", f.ID)
			}
			if e.Size != f.Size || e.Size != len(env.Own[i]) {
				t.Errorf("size mismatch for fragment %d: entry %d, fragment %d, own triples %d", f.ID, e.Size, f.Size, len(env.Own[i]))
			}
			var opts match.Options
			if f.Minterm != nil {
				opts.VertexFilter = f.Minterm.VertexFilter()
			}
			if want := match.Count(f.Pattern.Graph, rdf.NewFrozen(env.G.Dict, env.Own[i]).Snapshot(), opts); e.Cardinality != want || want == 0 {
				t.Errorf("horizontal=%v: fragment %d has cardinality %d, its own triples hold %d matches", horizontal, f.ID, e.Cardinality, want)
			}
		}
	}
}

func TestLookupByPatternCode(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, p := range env.Dict.Patterns() {
		if len(env.Dict.Lookup(p.Code)) == 0 {
			t.Errorf("pattern %q has no dictionary entries", p.Code)
		}
	}
	if len(env.Dict.Lookup("no-such-code")) != 0 {
		t.Error("bogus code returned entries")
	}
}

func TestLookupGraphGeneralizes(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// A subquery with constants must still find its pattern's entries.
	sub := sparql.MustParse(env.G.Dict,
		`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person0> . }`)
	plain := sparql.MustParse(env.G.Dict,
		`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> ?y . }`)
	want := env.Dict.LookupGraph(plain)
	if len(want) == 0 {
		t.Skip("2-edge name+influencedBy pattern not selected in this configuration")
	}
	if got := env.Dict.LookupGraph(sub); !slices.Equal(got, want) {
		t.Errorf("constant-bearing subquery found %d entries, its pattern %d", len(got), len(want))
	}
}

func TestEstimateCardPositive(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sub := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . }`)
	card, ok := env.Dict.EstimateCard(sub)
	if !ok {
		t.Fatal("one-edge subquery not mapped")
	}
	if card != 40 {
		t.Errorf("card = %d, want 40 (one name per person)", card)
	}
	// Constants shrink the estimate.
	cSub := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <influencedBy> <Person3> . }`)
	cCard, ok := env.Dict.EstimateCard(cSub)
	if !ok {
		t.Fatal("constant subquery not mapped")
	}
	plain := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <influencedBy> ?y . }`)
	pCard, _ := env.Dict.EstimateCard(plain)
	if cCard >= pCard {
		t.Errorf("constant did not shrink estimate: %d >= %d", cCard, pCard)
	}
}

func TestEstimateCardUnknownPattern(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// viaf is cold: no pattern.
	sub := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <viaf> ?v . }`)
	if _, ok := env.Dict.EstimateCard(sub); ok {
		t.Error("cold subquery mapped to a pattern")
	}
	if env.Dict.EstimateColdCard(sub) < 1 {
		t.Error("cold estimate below 1")
	}
}

func TestRelevantEntriesHorizontalPruning(t *testing.T) {
	env, err := testenv.Build(testenv.Options{Horizontal: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// influencedBy with a constant that exists in the data (Person1 is an
	// influencedBy target in the fixture): relevant horizontal fragments
	// must be a subset of all fragments for the pattern.
	withConst := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person1> . }`)
	all := env.Dict.LookupGraph(withConst)
	if len(all) == 0 {
		t.Skip("pattern not selected")
	}
	rel := env.Dict.RelevantEntries(withConst)
	if len(rel) == 0 {
		t.Fatal("no relevant entries for constant query")
	}
	if len(rel) > len(all) {
		t.Errorf("relevant (%d) exceeds total (%d)", len(rel), len(all))
	}
	// A constant absent from the data prunes every fragment: empty result
	// can be answered without touching any site.
	ghost := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person0> . }`)
	if got := env.Dict.RelevantEntries(ghost); len(got) != 0 {
		// Person0 is a workload constant but never an influencedBy target,
		// so its equality fragment is empty and was dropped.
		for _, e := range got {
			if e.Fragment.Minterm != nil && !compatibleWithGhost(e) {
				t.Errorf("incompatible fragment %d deemed relevant", e.Fragment.ID)
			}
		}
	}
}

// compatibleWithGhost is a loose check used above: entries surviving for
// the ghost query must at least not carry an equality on another constant.
func compatibleWithGhost(e *dict.Entry) bool {
	return e.Fragment.Minterm == nil || len(e.Fragment.Minterm.Constraints) > 0
}

// TestEstimatesTrackLiveUpdates pins the stale-cardinality fix: the
// dictionary's Build-time statistics are rescaled by each graph's
// live/build triple ratio, so a large insert batch raises the estimates
// the planner compares and a delete batch lowers them again — without
// the fix the planner kept seeing fragmentation-time cardinalities
// forever, however many update batches had landed.
func TestEstimatesTrackLiveUpdates(t *testing.T) {
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sub := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . }`)
	base, ok := env.Dict.EstimateCard(sub)
	if !ok {
		t.Fatal("name subquery not mapped")
	}

	// A large insert batch: as many new triples as each relevant fragment
	// holds, into the graph storing it, its site's.
	name := env.G.Dict.Encode(rdf.NewIRI("name"))
	var added []rdf.Triple
	for _, e := range env.Dict.LookupGraph(sub) {
		for i := 0; i < e.Size; i++ {
			tr := rdf.Triple{
				S: env.G.Dict.Encode(rdf.NewIRI(fmt.Sprintf("Grown%d_%d", e.Fragment.ID, i))),
				P: name,
				O: env.G.Dict.Encode(rdf.NewLiteral(fmt.Sprintf("Grown %d %d", e.Fragment.ID, i))),
			}
			if e.Fragment.Graph.Add(tr) {
				added = append(added, tr)
			}
		}
	}
	grown, _ := env.Dict.EstimateCard(sub)
	if grown <= base {
		t.Fatalf("estimate did not rise after doubling the fragments: %d -> %d", base, grown)
	}

	// Deleting the batch brings the estimate back down.
	for _, tr := range added {
		for _, e := range env.Dict.LookupGraph(sub) {
			e.Fragment.Graph.Delete(tr)
		}
	}
	shrunk, _ := env.Dict.EstimateCard(sub)
	if shrunk >= grown {
		t.Fatalf("estimate did not fall after deleting the batch: %d -> %d", grown, shrunk)
	}
	if shrunk != base {
		t.Errorf("estimate after add+delete round trip = %d, want the baseline %d", shrunk, base)
	}

	// Cold estimates rescale too: tombstoning half the cold graph's viaf
	// triples must lower the cold bound.
	coldSub := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <viaf> ?v . }`)
	coldBase := env.Dict.EstimateColdCard(coldSub)
	cold := env.Frag.Cold.Graph
	viaf := env.G.Dict.Encode(rdf.NewIRI("viaf"))
	removed := 0
	for _, tr := range cold.Triples() {
		if tr.P == viaf && removed*2 < coldBase {
			cold.Delete(tr)
			removed++
		}
	}
	if removed == 0 {
		t.Skip("fixture holds no cold viaf triples to delete")
	}
	if coldAfter := env.Dict.EstimateColdCard(coldSub); coldAfter >= coldBase {
		t.Errorf("cold estimate did not fall after deleting %d viaf triples: %d -> %d",
			removed, coldBase, coldAfter)
	}
}
