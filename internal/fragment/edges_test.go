package fragment

import (
	"slices"
	"strings"
	"testing"

	"rdffrag/internal/fap"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// matchUnion is Definition 10/12 read literally: the distinct triples the
// matches of the fragment's pattern (under its minterm's filter) use,
// collected from Find rather than through an edge set.
func matchUnion(f *Fragment, hot *rdf.Snapshot) []rdf.Triple {
	opts := match.Options{}
	if f.Minterm != nil {
		opts.VertexFilter = f.Minterm.VertexFilter()
	}
	seen := make(map[rdf.Triple]bool)
	var out []rdf.Triple
	for _, m := range match.Find(f.Pattern.Graph, hot, opts) {
		for _, tr := range m.Triples {
			if !seen[tr] {
				seen[tr] = true
				out = append(out, tr)
			}
		}
	}
	slices.SortFunc(out, rdf.CompareSPO)
	return out
}

// coversHotGraph returns the hot triples in no hot fragment's edge set:
// none, when the fragmentation keeps every hot edge reachable.
func coversHotGraph(fr *Fragmentation) []rdf.Triple {
	hot := fr.Hot.Snapshot()
	defer hot.Close()
	union := hot.NewEdgeSet()
	for _, f := range fr.Fragments {
		union.Union(f.Edges)
	}
	var missing []rdf.Triple
	have := union.Triples()
	for _, t := range hot.Triples() {
		if _, ok := slices.BinarySearchFunc(have, t, rdf.CompareSPO); !ok {
			missing = append(missing, t)
		}
	}
	return missing
}

func checkFragments(t *testing.T, name string, fr *Fragmentation) {
	t.Helper()
	if missing := coversHotGraph(fr); missing != nil {
		t.Errorf("%s: %d hot edges in no fragment", name, len(missing))
	}
	hot := fr.Hot.Snapshot()
	defer hot.Close()
	for i, f := range fr.Fragments {
		if f.ID != i || f.Graph != nil || !f.Edges.Of(hot) {
			t.Errorf("%s: fragment at %d has ID %d, a graph before placement, or an edge set of another cut", name, i, f.ID)
		}
		if want := matchUnion(f, hot); !slices.Equal(f.Edges.Triples(), want) || f.Size != len(want) {
			t.Errorf("%s: fragment %d (%s) holds %d triples (size %d), its matches use %d", name, f.ID, f.Key(), f.Edges.Len(), f.Size, len(want))
		}
	}
	if fr.Cold.ID != len(fr.Fragments) || fr.Cold.Key() != "cold" || fr.Cold.Size != fr.Cold.Graph.NumTriples() {
		t.Errorf("%s: cold fragment has ID %d, key %s, size %d", name, fr.Cold.ID, fr.Cold.Key(), fr.Cold.Size)
	}
}

// sameFragments compares two fragmentations fragment by fragment.
func sameFragments(a, b *Fragmentation) bool {
	return slices.EqualFunc(a.Fragments, b.Fragments, func(x, y *Fragment) bool {
		return x.ID == y.ID && x.Key() == y.Key() && slices.Equal(x.Edges.Triples(), y.Edges.Triples())
	}) && a.Cold.Graph == b.Cold.Graph
}

// TestFragmentsAreTheirPatternsMatches: built from the edge sets selection
// left behind, or — the second time round, when those are released — from
// a fresh match, a fragment holds exactly the triples its pattern's
// matches use, and the hot graph stays covered.
func TestFragmentsAreTheirPatternsMatches(t *testing.T) {
	type fixture struct {
		name     string
		g        *rdf.Graph
		workload []*sparql.Graph
		theta    int
	}
	fig := figure1Graph()
	ds := watdiv.Generate(watdiv.Options{Triples: 5000, Seed: 1})
	wd, err := ds.GenerateWorkload(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []fixture{{"figure 1", fig, figure2Workload(fig.Dict), 2}, {"watdiv", ds.Graph, wd, 4}} {
		hc := SplitHotCold(fx.g, fx.workload, fx.theta)
		if hc.Hot.DeltaLen() != 0 || hc.Cold.DeltaLen() != 0 || hc.Hot.NumTriples()+hc.Cold.NumTriples() != fx.g.NumTriples() {
			t.Fatalf("%s: hot %d + cold %d of %d triples, deltas %d/%d", fx.name,
				hc.Hot.NumTriples(), hc.Cold.NumTriples(), fx.g.NumTriples(), hc.Hot.DeltaLen(), hc.Cold.DeltaLen())
		}
		ps := (&mining.Miner{MinSup: fx.theta}).Mine(fx.workload)
		sel, err := (&fap.Selector{StorageCapacity: 3 * hc.Hot.NumTriples()}).Select(ps, fx.workload, hc.Hot)
		if err != nil {
			t.Fatal(err)
		}
		vertical := Vertical(sel, hc)
		checkFragments(t, fx.name+" vertical", vertical)
		if !sameFragments(vertical, Vertical(sel, hc)) {
			t.Errorf("%s: Vertical over a selection whose edge sets are released differs", fx.name)
		}

		sel, _ = (&fap.Selector{StorageCapacity: 3 * hc.Hot.NumTriples()}).Select(ps, fx.workload, hc.Hot)
		horizontal := Horizontal(sel, fx.workload, hc, HorizontalOptions{})
		checkFragments(t, fx.name+" horizontal", horizontal)
		if !sameFragments(horizontal, Horizontal(sel, fx.workload, hc, HorizontalOptions{})) {
			t.Errorf("%s: Horizontal over a selection whose edge sets are released differs", fx.name)
		}
		minterms, whole := 0, 0
		for _, f := range horizontal.Fragments {
			if f.Minterm != nil {
				minterms++
			} else {
				whole++
			}
		}
		if minterms == 0 || whole == 0 {
			t.Errorf("%s: %d minterm and %d unsplit fragments; both branches should run", fx.name, minterms, whole)
		}
	}
}

// TestSimplePredTieBreakIgnoresVertexNumbering: two copies of one pattern
// that number their vertices differently, offered more tied constants
// than MaxSimplePreds keeps, keep the same (variable, constant) pairs.
func TestSimplePredTieBreakIgnoresVertexNumbering(t *testing.T) {
	d := rdf.NewDict()
	texts := []string{
		`SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . }`,
		`SELECT * WHERE { ?b <q> ?c . ?a <p> ?b . }`,
	}
	var w []*sparql.Graph
	for _, q := range []string{
		`SELECT * WHERE { <A1> <p> ?b . ?b <q> ?c . }`,
		`SELECT * WHERE { ?a <p> <B1> . <B1> <q> ?c . }`,
		`SELECT * WHERE { ?a <p> ?b . ?b <q> <C1> . }`,
		`SELECT * WHERE { ?a <p> ?b . ?b <q> <A1> . }`, // A1 again, at another vertex
	} {
		w = append(w, sparql.MustParse(d, q))
	}
	var kept [][]string
	for _, text := range texts {
		g := sparql.MustParse(d, text)
		p := &mining.Pattern{Graph: g, Code: mining.CanonicalCode(g)}
		var names []string
		for _, sp := range harvestSimplePreds(p, w, 2, 1) {
			names = append(names, g.Verts[sp.vertex].Var+"="+d.Decode(sp.value).Value)
		}
		kept = append(kept, names)
	}
	if len(kept[0]) != 2 || !slices.Equal(kept[0], kept[1]) {
		t.Errorf("simple predicates kept under two numberings: %v vs %v", kept[0], kept[1])
	}
}

func TestRelevanceAndNames(t *testing.T) {
	g := figure1Graph()
	w := figure2Workload(g.Dict)
	hc := SplitHotCold(g, w, 2)
	fr := Horizontal(buildSelection(t, g, w, hc), w, hc, HorizontalOptions{MaxSimplePreds: 2})

	aristotle := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Aristotle> . ?x <mainInterest> <Ethics> . }`)
	plato := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Plato> . ?x <mainInterest> <Ethics> . }`)
	unrelated := sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <wappen> ?y . }`)
	var onlyAristotle, unsplit int
	for _, f := range fr.Fragments {
		if f.RelevantTo(unrelated) {
			t.Errorf("fragment %s relevant to a query over a cold property", f.Key())
		}
		if f.Minterm == nil {
			unsplit++
			if !f.MintermCompatible(aristotle, nil) {
				t.Error("a fragment without a minterm rejected an embedding")
			}
			continue
		}
		if !strings.Contains(f.Key(), "|") || f.Minterm.String() == "" {
			t.Errorf("minterm fragment key %q, minterm %q", f.Key(), f.Minterm)
		}
		if f.RelevantTo(aristotle) && !f.RelevantTo(plato) {
			onlyAristotle++
		}
	}
	if onlyAristotle == 0 || unsplit == 0 {
		t.Errorf("%d fragments prune by the query's constant, %d unsplit", onlyAristotle, unsplit)
	}
	if !fr.Cold.RelevantTo(unrelated) {
		t.Error("the cold fragment must stay relevant to every query")
	}
	for k, want := range map[Kind]string{VerticalKind: "vertical", HorizontalKind: "horizontal", ColdKind: "cold", Kind(9): "Kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %s", uint8(k), k)
		}
	}
	empty := &Fragmentation{Hot: rdf.NewFrozen(g.Dict, nil), Cold: coldFragment(&HotCold{Hot: hc.Hot}, 0)}
	if empty.Redundancy(empty.Hot) != 0 || len(empty.All()) != 0 {
		t.Error("an empty fragmentation has redundancy 0 and no fragments")
	}
}
