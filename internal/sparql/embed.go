package sparql

import (
	"encoding/binary"
	"sort"
)

// Embedding is one occurrence of a pattern inside a query graph: a
// vertex-injective mapping of pattern vertices to query vertices together
// with the distinct query edge indices covered, in pattern edge order.
type Embedding struct {
	VertexMap []int // pattern vertex index -> query vertex index
	EdgeMap   []int // pattern edge index -> query edge index
}

// Embeds reports whether pattern occurs as a subgraph of q (Definition 7's
// "pattern p is a subgraph of Q"). Matching is vertex- and edge-injective,
// preserves edge direction, requires constant vertices and constant edge
// labels to coincide, and lets pattern variables bind to any query vertex
// (variable or constant). A pattern variable predicate matches any query
// edge label.
func Embeds(pattern, q *Graph) bool {
	return len(FindEmbeddings(pattern, q, 1)) > 0
}

// FindEmbeddings enumerates embeddings of pattern in q, up to limit
// (limit <= 0 means all). Symmetric duplicates (same edge set, different
// automorphism) are all returned; callers that only care about covered
// edges can dedupe on EdgeMap.
func FindEmbeddings(pattern, q *Graph, limit int) []Embedding {
	if len(pattern.Edges) == 0 || len(pattern.Edges) > len(q.Edges) {
		return nil
	}
	order := connectedEdgeOrder(pattern)
	st := embedState{
		p:        pattern,
		q:        q,
		order:    order,
		vmap:     make([]int, len(pattern.Verts)),
		vused:    make(map[int]bool, len(pattern.Verts)),
		emap:     make([]int, len(pattern.Edges)),
		eused:    make([]bool, len(q.Edges)),
		limit:    limit,
		qOutAdj:  buildVertexEdgeIndex(q),
		unmapped: -1,
	}
	for i := range st.vmap {
		st.vmap[i] = st.unmapped
	}
	st.search(0)
	return st.found
}

// AppendShapeKey appends the key of q's shape to dst: the edge list over
// parse-order vertex numbers with its predicate IDs (a predicate variable
// as the number of the first edge that carries it), and which vertices
// are constants — not their values, the variable names, projection, ORDER
// BY or LIMIT. It has two users: the plan cache keys a decompose.Shape by
// it, a function of exactly this, and fragment.Relevance keys a pattern's
// embeddings by it, which FindEmbeddings finds reading no more of q than
// this. A reordered pattern gets a key of its own. With dst backed by a
// stack array the key costs no allocation.
func AppendShapeKey(dst []byte, q *Graph) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(q.Verts)))
	for _, v := range q.Verts {
		if v.IsVar() {
			dst = append(dst, 'v')
		} else {
			dst = append(dst, 'c')
		}
	}
	for i, e := range q.Edges {
		dst = binary.AppendUvarint(dst, uint64(e.From))
		dst = binary.AppendUvarint(dst, uint64(e.To))
		if !e.IsPredVar() {
			dst = append(dst, 'p')
			dst = binary.AppendUvarint(dst, uint64(e.Pred))
			continue
		}
		first := i
		for j, w := range q.Edges[:i] {
			if w.PredVar == e.PredVar {
				first = j
				break
			}
		}
		dst = append(dst, '?')
		dst = binary.AppendUvarint(dst, uint64(first))
	}
	return dst
}

type embedState struct {
	p, q     *Graph
	order    []int
	vmap     []int
	vused    map[int]bool
	emap     []int
	eused    []bool
	limit    int
	found    []Embedding
	qOutAdj  map[int][]int // query vertex -> incident edge indices
	unmapped int
}

func buildVertexEdgeIndex(q *Graph) map[int][]int {
	idx := make(map[int][]int)
	for i, e := range q.Edges {
		idx[e.From] = append(idx[e.From], i)
		if e.To != e.From {
			idx[e.To] = append(idx[e.To], i)
		}
	}
	return idx
}

// connectedEdgeOrder orders pattern edges so each edge after the first
// shares a vertex with an earlier edge when the pattern is connected,
// which keeps the candidate sets small.
func connectedEdgeOrder(p *Graph) []int {
	n := len(p.Edges)
	order := make([]int, 0, n)
	used := make([]bool, n)
	covered := make(map[int]bool)
	for len(order) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			e := p.Edges[i]
			if len(order) == 0 || covered[e.From] || covered[e.To] {
				pick = i
				break
			}
		}
		if pick == -1 { // disconnected pattern: start a new component
			for i := 0; i < n; i++ {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		used[pick] = true
		order = append(order, pick)
		covered[p.Edges[pick].From] = true
		covered[p.Edges[pick].To] = true
	}
	return order
}

func (s *embedState) search(depth int) bool {
	if depth == len(s.order) {
		emb := Embedding{
			VertexMap: append([]int(nil), s.vmap...),
			EdgeMap:   append([]int(nil), s.emap...),
		}
		s.found = append(s.found, emb)
		return s.limit > 0 && len(s.found) >= s.limit
	}
	pe := s.p.Edges[s.order[depth]]
	for _, qi := range s.candidates(pe) {
		if s.eused[qi] {
			continue
		}
		qe := s.q.Edges[qi]
		if !s.edgeLabelOK(pe, qe) {
			continue
		}
		okFrom, undoFrom := s.tryBind(pe.From, qe.From)
		if !okFrom {
			continue
		}
		okTo, undoTo := s.tryBind(pe.To, qe.To)
		if !okTo {
			undoFrom()
			continue
		}
		s.eused[qi] = true
		s.emap[s.order[depth]] = qi
		if s.search(depth + 1) {
			return true
		}
		s.eused[qi] = false
		undoTo()
		undoFrom()
	}
	return false
}

// candidates returns the query edge indices worth trying for pattern edge
// pe, using already-bound endpoints to restrict the set.
func (s *embedState) candidates(pe Edge) []int {
	fromBound := s.vmap[pe.From] != s.unmapped
	toBound := s.vmap[pe.To] != s.unmapped
	switch {
	case fromBound:
		return s.qOutAdj[s.vmap[pe.From]]
	case toBound:
		return s.qOutAdj[s.vmap[pe.To]]
	default:
		all := make([]int, len(s.q.Edges))
		for i := range all {
			all[i] = i
		}
		return all
	}
}

func (s *embedState) edgeLabelOK(pe, qe Edge) bool {
	if pe.IsPredVar() {
		return true
	}
	return !qe.IsPredVar() && qe.Pred == pe.Pred
}

// tryBind attempts to map pattern vertex pv to query vertex qv, enforcing
// injectivity and constant compatibility. It returns success and an undo
// closure.
func (s *embedState) tryBind(pv, qv int) (bool, func()) {
	cur := s.vmap[pv]
	if cur != s.unmapped {
		if cur != qv {
			return false, nil
		}
		return true, func() {}
	}
	pvert := s.p.Verts[pv]
	qvert := s.q.Verts[qv]
	if !pvert.IsVar() {
		if qvert.IsVar() || qvert.Term != pvert.Term {
			return false, nil
		}
	}
	if s.vused[qv] {
		return false, nil
	}
	s.vmap[pv] = qv
	s.vused[qv] = true
	return true, func() {
		s.vmap[pv] = s.unmapped
		delete(s.vused, qv)
	}
}

// CoveredEdgeSets returns the distinct sorted query-edge index sets covered
// by embeddings of pattern in q. Decomposition uses these as candidate
// subqueries.
func CoveredEdgeSets(pattern, q *Graph) [][]int {
	embs := FindEmbeddings(pattern, q, 0)
	seen := make(map[string][]int)
	for _, e := range embs {
		es := append([]int(nil), e.EdgeMap...)
		sort.Ints(es)
		key := intsKey(es)
		if _, ok := seen[key]; !ok {
			seen[key] = es
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

func intsKey(xs []int) string {
	b := make([]byte, 0, len(xs)*3)
	for _, x := range xs {
		b = append(b, byte(x), byte(x>>8), byte(x>>16))
	}
	return string(b)
}
