package fragment

import (
	"rdffrag/internal/fap"
	"rdffrag/internal/rdf"
)

// Vertical builds the vertical fragmentation (Definition 10): one fragment
// per selected frequent access pattern, containing the subgraph of the hot
// graph induced by all matches of the pattern — the edge set selection
// already matched it into, not a second match. The cold graph becomes one
// black-box fragment.
func Vertical(sel *fap.Selection, hc *HotCold) *Fragmentation {
	fr := &Fragmentation{Kind: VerticalKind, Hot: hc.Hot}
	hsn := hc.Hot.Snapshot()
	defer hsn.Close()
	defer sel.ReleaseEdges()
	for _, p := range sel.Patterns {
		// Fragments are immutable once placed at a site: built frozen.
		g := rdf.NewFrozen(hc.Hot.Dict, sel.MatchedEdges(p, hsn).Triples())
		if g.NumTriples() == 0 && p.Size() > 1 {
			continue // multi-edge pattern with no matches adds nothing
		}
		fr.Fragments = append(fr.Fragments, &Fragment{
			ID:      len(fr.Fragments),
			Kind:    VerticalKind,
			Pattern: p,
			Graph:   g,
		})
	}
	fr.Cold = &Fragment{ID: len(fr.Fragments), Kind: ColdKind, Graph: coldGraph(hc)}
	return fr
}

func coldGraph(hc *HotCold) *rdf.Graph {
	if hc.Cold != nil {
		hc.Cold.Freeze()
		return hc.Cold
	}
	return rdf.NewGraph(hc.Hot.Dict)
}
