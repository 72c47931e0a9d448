package fragment

import (
	"rdffrag/internal/fap"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
)

// Vertical builds the vertical fragmentation (Definition 10): one fragment
// per selected frequent access pattern, of the edges all matches of the
// pattern use in the hot graph — the edge set selection already matched
// it into, not a second match. The cold graph becomes one black-box
// fragment.
func Vertical(sel *fap.Selection, hc *HotCold) *Fragmentation {
	fr := &Fragmentation{Kind: VerticalKind, Hot: hc.Hot}
	hsn := hc.Hot.Snapshot()
	defer hsn.Close()
	defer sel.ReleaseEdges()
	for _, p := range sel.Patterns {
		fr.add(VerticalKind, p, nil, sel.MatchedEdges(p, hsn))
	}
	fr.Cold = coldFragment(hc, len(fr.Fragments))
	return fr
}

// add appends a hot fragment of the given edges, unless it is empty and
// of a multi-edge pattern or a minterm, which adds nothing.
func (fr *Fragmentation) add(kind Kind, p *mining.Pattern, mt *Minterm, edges *rdf.EdgeSet) {
	n := edges.Len()
	if n == 0 && (mt != nil || p.Size() > 1) {
		return
	}
	fr.Fragments = append(fr.Fragments, &Fragment{
		ID: len(fr.Fragments), Kind: kind, Pattern: p, Minterm: mt, Size: n, Edges: edges,
	})
}

// coldFragment is the cold graph as the fragment with the given ID.
func coldFragment(hc *HotCold, id int) *Fragment {
	g := hc.Cold
	if g == nil {
		g = rdf.NewGraph(hc.Hot.Dict)
	}
	g.Freeze()
	return &Fragment{ID: id, Kind: ColdKind, Size: g.NumTriples(), Graph: g}
}
