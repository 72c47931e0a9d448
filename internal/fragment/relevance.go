package fragment

import (
	"encoding/binary"
	"slices"

	"rdffrag/internal/sparql"
)

// Relevance answers RelevantTo for many fragments and queries, finding a
// pattern's embeddings once per query shape (sparql.AppendShapeKey), not
// once per query: each query pays only the minterm check against its own
// constants. The zero value is ready to use, by one goroutine.
type Relevance struct {
	maps map[relevanceKey][][]int
	key  []byte
}

type relevanceKey struct {
	pattern *sparql.Graph
	shape   string
}

// embeddings returns the vertex maps of sparql.FindEmbeddings(p, q, 0),
// shared by every query of q's shape; do not modify them.
func (r *Relevance) embeddings(p, q *sparql.Graph) [][]int {
	r.key = sparql.AppendShapeKey(r.key[:0], q)
	if slices.ContainsFunc(p.Verts, func(v sparql.Vertex) bool { return !v.IsVar() }) {
		// p embeds only where q has p's constants: key q's constants too.
		for _, u := range q.Verts {
			r.key = binary.AppendUvarint(r.key, uint64(u.Term))
		}
	}
	if maps, ok := r.maps[relevanceKey{p, string(r.key)}]; ok {
		return maps
	}
	var maps [][]int
	for _, e := range sparql.FindEmbeddings(p, q, 0) {
		maps = append(maps, e.VertexMap)
	}
	if r.maps == nil {
		r.maps = make(map[relevanceKey][][]int)
	}
	r.maps[relevanceKey{p, string(r.key)}] = maps
	return maps
}

// RelevantTo reports whether evaluating query q may need fragment f:
// f's generating pattern embeds in q, and — for horizontal fragments —
// some embedding's constant assignments are compatible with the minterm
// (a query variable is compatible with any constraint; a query constant
// must not contradict it). This is the use(Q, p) / use(Q, mp) notion
// driving both allocation affinity and fragment pruning during query
// processing.
func (r *Relevance) RelevantTo(f *Fragment, q *sparql.Graph) bool {
	if f.Kind == ColdKind {
		return true // cold relevance is decided by the decomposer
	}
	return f.CompatibleWithAny(q, r.embeddings(f.Pattern.Graph, q))
}

// CompatibleWithAny reports whether some vertex map of the fragment's
// pattern into q is compatible with its minterm: with every embedding of
// the pattern, RelevantTo's answer.
func (f *Fragment) CompatibleWithAny(q *sparql.Graph, vertexMaps [][]int) bool {
	for _, m := range vertexMaps {
		if f.mintermCompatible(q, m) {
			return true
		}
	}
	return false
}

// mintermCompatible is RelevantTo's check of one embedding: vertexMap
// sends each vertex of the fragment's pattern to a vertex of q, and q's
// constants at the constrained positions must not contradict the
// minterm. A fragment without a minterm is compatible with every
// embedding.
func (f *Fragment) mintermCompatible(q *sparql.Graph, vertexMap []int) bool {
	if f.Minterm == nil {
		return true
	}
	for _, c := range f.Minterm.Constraints {
		// A variable is unbound: every fragment of the split may hold matches.
		if vert := q.Verts[vertexMap[c.Vertex]]; !vert.IsVar() && (vert.Term == c.Value) != c.Equal {
			return false
		}
	}
	return true
}
