package fragment

import (
	"rdffrag/internal/sparql"
)

// RelevantTo reports whether evaluating query q may need this fragment:
// the fragment's generating pattern embeds in q, and — for horizontal
// fragments — some embedding's constant assignments are compatible with
// the minterm (a query variable is compatible with any constraint; a query
// constant must not contradict it). This is the use(Q, p) / use(Q, mp)
// notion driving both allocation affinity and fragment pruning during
// query processing.
func (f *Fragment) RelevantTo(q *sparql.Graph) bool {
	if f.Kind == ColdKind {
		return true // cold relevance is decided by the decomposer
	}
	if f.Minterm == nil {
		return sparql.Embeds(f.Pattern.Graph, q)
	}
	for _, emb := range sparql.FindEmbeddings(f.Pattern.Graph, q, 0) {
		if f.MintermCompatible(q, emb.VertexMap) {
			return true
		}
	}
	return false
}

// MintermCompatible is RelevantTo's check of one embedding: vertexMap
// sends each vertex of the fragment's pattern to a vertex of q, and q's
// constants at the constrained positions must not contradict the
// minterm. Where an embedding lies depends on q's structure alone, so a
// caller that plans many queries of one shape enumerates the maps once
// and runs only this check per query. A fragment without a minterm is
// compatible with every embedding.
func (f *Fragment) MintermCompatible(q *sparql.Graph, vertexMap []int) bool {
	if f.Minterm == nil {
		return true
	}
	for _, c := range f.Minterm.Constraints {
		vert := q.Verts[vertexMap[c.Vertex]]
		if vert.IsVar() {
			continue // unbound: every fragment of the split may hold matches
		}
		if c.Equal && vert.Term != c.Value {
			return false
		}
		if !c.Equal && vert.Term == c.Value {
			return false
		}
	}
	return true
}
