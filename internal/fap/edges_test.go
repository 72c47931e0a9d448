package fap

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/watdiv"
)

// fingerprint condenses what Select decided: the selected codes in order,
// every sized pattern's size, the totals.
func fingerprint(sel *Selection) string {
	h := fnv.New64a()
	for _, p := range sel.Patterns {
		fmt.Fprintf(h, "P %s\n", p.Code)
	}
	var lines []string
	for code, sz := range sel.FragSize {
		lines = append(lines, fmt.Sprintf("F %s=%d", code, sz))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("patterns=%d oneEdge=%d benefit=%d total=%d sized=%d fp=%016x",
		len(sel.Patterns), len(sel.OneEdge), sel.Benefit, sel.TotalSize, len(sel.FragSize), h.Sum64())
}

// TestSelectUnchangedByEdgeSets pins Select's outcome to what it was when
// a pattern's size was MatchedGraph(p).NumTriples(): the fingerprints were
// recorded at the commit before edge sets, on the package's own fixture
// (a hot graph as Add left it, all delta) and on a frozen WatDiv graph.
func TestSelectUnchangedByEdgeSets(t *testing.T) {
	g, w := testData()
	ps := (&mining.Miner{MinSup: 3}).Mine(w)
	for sc, want := range map[int]string{
		0:                   "patterns=4 oneEdge=3 benefit=29 total=90 sized=4 fp=99493eac523c172a",
		g.NumTriples() + 5:  "patterns=3 oneEdge=3 benefit=17 total=50 sized=4 fp=ef7e7a4b56bac5ae",
		10 * g.NumTriples(): "patterns=4 oneEdge=3 benefit=29 total=90 sized=4 fp=99493eac523c172a",
	} {
		sel, err := (&Selector{StorageCapacity: sc}).Select(ps, w, g)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(sel); got != want {
			t.Errorf("fap fixture, SC %d:\n got %s\nwant %s", sc, got, want)
		}
	}

	ds := watdiv.Generate(watdiv.Options{Triples: 5000, Seed: 1})
	wl, err := ds.GenerateWorkload(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds.Graph.Freeze()
	wps := (&mining.Miner{MinSup: 4}).Mine(wl)
	for _, c := range []struct {
		mul  int
		want string
	}{
		{2, "patterns=33 oneEdge=19 benefit=1020 total=8841 sized=106 fp=446b466fc17af06f"},
		{3, "patterns=40 oneEdge=19 benefit=1240 total=13077 sized=106 fp=8b6d2ac56f2ec1bb"},
	} {
		sel, err := (&Selector{StorageCapacity: c.mul * ds.Graph.NumTriples()}).Select(wps, wl, ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(sel); got != c.want {
			t.Errorf("WatDiv fixture, SC ×%d:\n got %s\nwant %s", c.mul, got, c.want)
		}
		if c.mul == 3 {
			checkSelectionEdges(t, sel, ds.Graph) // writes to the graph: last
		}
	}
}

// checkSelectionEdges: FragSize is the number of distinct triples the
// pattern's matches use (counted here from Find, not from an edge set);
// the set left on the selection is handed out as long as the graph has
// not moved, and never after ReleaseEdges or a write.
func checkSelectionEdges(t *testing.T, sel *Selection, hot *rdf.Graph) {
	t.Helper()
	sn := hot.Snapshot()
	defer sn.Close()
	total := 0
	for _, p := range sel.Patterns {
		used := make(map[rdf.Triple]bool)
		for _, m := range match.Find(p.Graph, sn, match.Options{}) {
			for _, tr := range m.Triples {
				used[tr] = true
			}
		}
		if sel.FragSize[p.Code] != len(used) {
			t.Errorf("FragSize[%s] = %d, its matches use %d triples", p.Code, sel.FragSize[p.Code], len(used))
		}
		total += len(used)
		es := sel.MatchedEdges(p, sn)
		if es != sel.edges[p.Code] || es.Len() != len(used) {
			t.Errorf("%s: Select's edge set (%d edges) not handed out for an unchanged graph", p.Code, es.Len())
		}
	}
	if total != sel.TotalSize {
		t.Errorf("TotalSize %d, selected patterns' edges sum to %d", sel.TotalSize, total)
	}
	if len(sel.edges) != len(sel.Patterns) {
		t.Errorf("%d edge sets kept for %d selected patterns", len(sel.edges), len(sel.Patterns))
	}

	p := sel.Patterns[len(sel.Patterns)-1]
	stale := sel.edges[p.Code]
	hot.Add(rdf.Triple{S: rdf.ID(hot.Dict.Len()), P: p.Graph.Edges[0].Pred, O: rdf.ID(hot.Dict.Len())})
	moved := hot.Snapshot()
	defer moved.Close()
	if es := sel.MatchedEdges(p, moved); es == stale {
		t.Error("an edge set taken before a write was handed out after it")
	}
	sel.ReleaseEdges()
	if es := sel.MatchedEdges(p, sn); es == stale || es.Len() != sel.FragSize[p.Code] {
		t.Errorf("after ReleaseEdges: %d edges matched afresh, want %d", es.Len(), sel.FragSize[p.Code])
	}
}
