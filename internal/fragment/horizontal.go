package fragment

import (
	"sort"

	"rdffrag/internal/fap"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// HorizontalOptions tunes minterm enumeration. Enumerating all minterm
// predicates is exponential, so the paper prunes by access frequency; the
// same idea appears here as a per-pattern cap on simple predicates plus a
// minimum access frequency for a constant to spawn a simple predicate.
type HorizontalOptions struct {
	// MaxSimplePreds caps the simple predicates kept per pattern (the
	// 2^y minterm blow-up). 0 means 3.
	MaxSimplePreds int
	// MinPredSupport is the minimum number of workload queries that must
	// bind a pattern variable to a constant before the constant yields a
	// simple predicate. 0 means 1.
	MinPredSupport int
}

type simplePred struct {
	vertex int // pattern vertex index
	value  rdf.ID
	count  int
}

// Horizontal builds the horizontal fragmentation (Definition 12): for each
// selected pattern, structural simple predicates are harvested from the
// workload's constants, combined into minterm predicates, and each
// non-empty minterm selection over the hot graph becomes a fragment.
// Patterns without any simple predicate yield a single unsplit fragment,
// so the union of horizontal fragments still covers the hot graph.
func Horizontal(sel *fap.Selection, workload []*sparql.Graph, hc *HotCold, opts HorizontalOptions) *Fragmentation {
	maxPreds := opts.MaxSimplePreds
	if maxPreds <= 0 {
		maxPreds = 3
	}
	minSupport := opts.MinPredSupport
	if minSupport <= 0 {
		minSupport = 1
	}

	fr := &Fragmentation{Kind: HorizontalKind, Hot: hc.Hot}
	hsn := hc.Hot.Snapshot()
	defer hsn.Close()
	defer sel.ReleaseEdges()
	// Every minterm of every pattern is matched in one batch; the
	// fragments are then added pattern by pattern, minterms in turn.
	minterms := make([][]*Minterm, len(sel.Patterns))
	var items []match.Item
	for i, p := range sel.Patterns {
		minterms[i] = enumerateMinterms(p, harvestSimplePreds(p, workload, maxPreds, minSupport))
		for _, mt := range minterms[i] {
			items = append(items, match.Item{Q: p.Graph, Opts: match.Options{VertexFilter: mt.VertexFilter()}})
		}
	}
	edges := match.MatchedEdgesAll(items, hsn)
	for i, p := range sel.Patterns {
		if len(minterms[i]) == 0 {
			// No constants in the workload for this pattern: one fragment,
			// of the edges selection matched it into.
			fr.add(HorizontalKind, p, nil, sel.MatchedEdges(p, hsn))
			continue
		}
		for _, mt := range minterms[i] {
			fr.add(HorizontalKind, p, mt, edges[0])
			edges = edges[1:]
		}
	}
	fr.Cold = coldFragment(hc, len(fr.Fragments))
	return fr
}

// harvestSimplePreds finds (pattern vertex, constant) pairs from workload
// queries containing the pattern: each embedding that binds a pattern
// variable to a query constant is evidence for a simple predicate
// p(var) = constant (Example 2).
func harvestSimplePreds(p *mining.Pattern, workload []*sparql.Graph, maxPreds, minSupport int) []simplePred {
	type key struct {
		vertex int
		value  rdf.ID
	}
	counts := make(map[key]int)
	var rel Relevance
	for _, q := range workload {
		seen := make(map[key]bool)
		for _, m := range rel.Embeddings(p.Graph, q) {
			for pv, qv := range m {
				if p.Graph.Verts[pv].IsVar() && !q.Verts[qv].IsVar() {
					k := key{vertex: pv, value: q.Verts[qv].Term}
					if !seen[k] {
						seen[k] = true
						counts[k]++
					}
				}
			}
		}
	}
	preds := make([]simplePred, 0, len(counts))
	for k, c := range counts {
		if c >= minSupport {
			preds = append(preds, simplePred{vertex: k.vertex, value: k.value, count: c})
		}
	}
	// Ties in count are broken by what every process agrees on whatever
	// its copy of the pattern graph numbers its vertices: the constant,
	// then the vertex's position in the pattern's canonical code.
	pos := mining.CanonicalOrder(p.Graph)
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].count != preds[j].count {
			return preds[i].count > preds[j].count
		}
		if preds[i].value != preds[j].value {
			return preds[i].value < preds[j].value
		}
		return pos[preds[i].vertex] < pos[preds[j].vertex]
	})
	if len(preds) > maxPreds {
		preds = preds[:maxPreds]
	}
	return preds
}

// enumerateMinterms produces all 2^y conjunctions of the simple predicates
// in natural or negated form (Section 5.2.1), skipping internally
// contradictory combinations (v=a ∧ v=b with a≠b).
func enumerateMinterms(p *mining.Pattern, preds []simplePred) []*Minterm {
	if len(preds) == 0 {
		return nil
	}
	n := len(preds)
	var out []*Minterm
	for mask := 0; mask < 1<<n; mask++ {
		cs := make([]Constraint, n)
		for i, sp := range preds {
			cs[i] = Constraint{
				Vertex: sp.vertex,
				Equal:  mask&(1<<i) != 0,
				Value:  sp.value,
			}
		}
		if contradictory(cs) {
			continue
		}
		out = append(out, &Minterm{Pattern: p, Constraints: cs})
	}
	return out
}

func contradictory(cs []Constraint) bool {
	eq := make(map[int]rdf.ID)
	for _, c := range cs {
		if !c.Equal {
			continue
		}
		if prev, ok := eq[c.Vertex]; ok && prev != c.Value {
			return true
		}
		eq[c.Vertex] = c.Value
	}
	// v = a together with v ≠ a is contradictory too.
	for _, c := range cs {
		if c.Equal {
			continue
		}
		if prev, ok := eq[c.Vertex]; ok && prev == c.Value {
			return true
		}
	}
	return false
}
