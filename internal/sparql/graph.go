// Package sparql implements the SPARQL subset used by the paper: basic
// graph patterns parsed into query graphs (Definition 2). The same Graph
// type doubles as the representation of frequent access patterns, so the
// miner, selector, fragmenter and decomposer all share it.
package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"rdffrag/internal/rdf"
)

// Vertex is a query-graph vertex: either a variable (Var != "") or a
// constant term identified by its dictionary ID.
type Vertex struct {
	Var  string
	Term rdf.ID
}

// IsVar reports whether the vertex is a variable.
func (v Vertex) IsVar() bool { return v.Var != "" }

// Edge is a directed labelled query edge between vertex indices. The label
// is either a constant property (PredVar == "") or a variable.
type Edge struct {
	From, To int
	Pred     rdf.ID
	PredVar  string
}

// IsPredVar reports whether the edge label is a variable.
func (e Edge) IsPredVar() bool { return e.PredVar != "" }

// Graph is a SPARQL query graph / access pattern.
type Graph struct {
	Verts []Vertex
	Edges []Edge

	// Select lists projected variable names; empty means SELECT *.
	Select []string
	// Limit caps the number of result rows; 0 means unlimited.
	Limit int
	// OrderBy lists result ordering keys, applied before Limit.
	OrderBy []OrderKey

	// vertIdx indexes Verts by key once AddVertex meets more than
	// scanVerts of them; nil until then.
	vertIdx map[Vertex]int
}

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Var  string
	Desc bool
}

// NewGraph returns an empty query graph.
func NewGraph() *Graph { return &Graph{} }

// key is what a vertex is interned by: a variable is its name alone.
func (v Vertex) key() Vertex {
	if v.IsVar() {
		v.Term = 0
	}
	return v
}

// scanVerts is the vertex count up to which AddVertex finds a vertex by
// scanning Verts instead of building vertIdx: a query's handful of
// vertices is found faster than a map is made.
const scanVerts = 8

// AddVertex interns a vertex, returning its index. Vertices with the same
// variable name or the same constant ID share an index.
func (g *Graph) AddVertex(v Vertex) int {
	k := v.key()
	if g.vertIdx == nil && len(g.Verts) >= scanVerts {
		g.vertIdx = make(map[Vertex]int, 2*len(g.Verts))
		for i, u := range g.Verts {
			g.vertIdx[u.key()] = i
		}
	}
	if g.vertIdx != nil {
		if i, ok := g.vertIdx[k]; ok {
			return i
		}
		g.vertIdx[k] = len(g.Verts)
	} else if i := slices.IndexFunc(g.Verts, func(u Vertex) bool { return u.key() == k }); i >= 0 {
		return i
	}
	g.Verts = append(g.Verts, v)
	return len(g.Verts) - 1
}

// AddEdge appends a directed labelled edge between existing vertex indices.
func (g *Graph) AddEdge(e Edge) {
	g.Edges = append(g.Edges, e)
}

// AddTriplePattern is a convenience that interns both endpoints and adds
// the edge.
func (g *Graph) AddTriplePattern(s Vertex, p Edge, o Vertex) {
	from := g.AddVertex(s)
	to := g.AddVertex(o)
	p.From, p.To = from, to
	g.AddEdge(p)
}

// NumEdges returns |E(Q)|.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Resolved reports whether g has no constant NewLookupParser left as
// rdf.NoID, one its dictionary lacks.
func (g *Graph) Resolved() bool {
	return !slices.ContainsFunc(g.Verts, func(v Vertex) bool { return !v.IsVar() && v.Term == rdf.NoID }) &&
		!slices.ContainsFunc(g.Edges, func(e Edge) bool { return !e.IsPredVar() && e.Pred == rdf.NoID })
}

// Vars returns the sorted distinct variable names appearing in vertices
// and edge labels.
func (g *Graph) Vars() []string {
	vars := make([]string, 0, len(g.Verts)+len(g.Edges))
	for _, v := range g.Verts {
		if v.IsVar() {
			vars = append(vars, v.Var)
		}
	}
	for _, e := range g.Edges {
		if e.IsPredVar() {
			vars = append(vars, e.PredVar)
		}
	}
	slices.Sort(vars)
	return slices.Compact(vars)
}

// EdgeSubgraph returns the query graph induced by the given edge indices.
// Vertex identity (variable names, constants) is preserved; isolated
// vertices are dropped. It takes neither g's projection nor its
// modifiers. When the subgraph is all of g — every edge, in order, over
// vertices g numbers by first use, as the parser does — it shares g's
// vertex and edge arrays, capacity-capped, so an append copies them; no
// caller writes a subgraph's arrays in place.
func (g *Graph) EdgeSubgraph(edgeIdx []int) *Graph {
	if g.numberedByFirstUse(edgeIdx) {
		return &Graph{Verts: g.Verts[:len(g.Verts):len(g.Verts)], Edges: g.Edges[:len(g.Edges):len(g.Edges)]}
	}
	// g's vertices are already distinct, so numbering them by first use
	// keeps their identity without interning each by key again; the key
	// index is rebuilt on demand (AddVertex) for the few callers that
	// go on extending the subgraph.
	var buf [32]int
	remap := buf[:]
	if len(g.Verts) > len(buf) {
		remap = make([]int, len(g.Verts))
	}
	remap = remap[:len(g.Verts)]
	for i := range remap {
		remap[i] = -1
	}
	sub := &Graph{
		Verts: make([]Vertex, 0, min(len(g.Verts), 2*len(edgeIdx))),
		Edges: make([]Edge, len(edgeIdx)),
	}
	vert := func(v int) int {
		if remap[v] < 0 {
			remap[v] = len(sub.Verts)
			sub.Verts = append(sub.Verts, g.Verts[v])
		}
		return remap[v]
	}
	for i, ei := range edgeIdx {
		e := g.Edges[ei]
		from := vert(e.From) // subject numbered before object, as AddTriplePattern does
		sub.Edges[i] = Edge{From: from, To: vert(e.To), Pred: e.Pred, PredVar: e.PredVar}
	}
	return sub
}

// numberedByFirstUse reports whether edgeIdx is every edge of g in order
// and g numbers its vertices by first use, subject before object, with
// none isolated: whether EdgeSubgraph's copy would equal g's own arrays.
func (g *Graph) numberedByFirstUse(edgeIdx []int) bool {
	if len(edgeIdx) == 0 || len(edgeIdx) != len(g.Edges) {
		return false
	}
	next := 0 // the vertex first use numbers next
	for i, ei := range edgeIdx {
		if ei != i {
			return false
		}
		for _, v := range [2]int{g.Edges[i].From, g.Edges[i].To} {
			switch {
			case v == next:
				next++
			case v > next:
				return false
			}
		}
	}
	return next == len(g.Verts)
}

// ConnectedComponents splits the edge set into connected components and
// returns the edge-index groups.
func (g *Graph) ConnectedComponents() [][]int {
	parent := make([]int, len(g.Verts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range g.Edges {
		union(e.From, e.To)
	}
	groups := make(map[int][]int)
	for i, e := range g.Edges {
		r := find(e.From)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// String renders the graph as a basic graph pattern using raw IDs for
// constants; see StringWithDict for decoded output.
func (g *Graph) String() string { return g.StringWithDict(nil) }

// StringWithDict renders the graph with decoded constant terms, or with
// raw IDs ("#7") when d is nil.
func (g *Graph) StringWithDict(d *rdf.Dict) string {
	term := func(id rdf.ID) string {
		if d == nil {
			return fmt.Sprintf("#%d", id)
		}
		return d.Decode(id).String()
	}
	vert := func(i int) string {
		v := g.Verts[i]
		if v.IsVar() {
			return "?" + v.Var
		}
		return term(v.Term)
	}
	var b strings.Builder
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteString(" . ")
		}
		pred := "?" + e.PredVar
		if !e.IsPredVar() {
			pred = term(e.Pred)
		}
		b.WriteString(vert(e.From) + " " + pred + " " + vert(e.To))
	}
	return b.String()
}

// Generalize returns a copy of the graph with every constant vertex
// replaced by a fresh variable (Section 4: workload normalization). Edge
// labels are kept: the paper removes constants at subjects and objects
// only.
func (g *Graph) Generalize() *Graph {
	c := NewGraph()
	names := make(map[int]string)
	fresh := 0
	vertOf := func(i int) Vertex {
		v := g.Verts[i]
		if v.IsVar() {
			return v
		}
		n, ok := names[i]
		for !ok {
			n = fmt.Sprintf("g%d", fresh)
			fresh++
			// A name the query already uses would merge the constant's
			// vertex into that variable's.
			ok = !slices.ContainsFunc(g.Verts, func(u Vertex) bool { return u.Var == n })
			names[i] = n
		}
		return Vertex{Var: n}
	}
	for _, e := range g.Edges {
		c.AddTriplePattern(vertOf(e.From), Edge{Pred: e.Pred, PredVar: e.PredVar}, vertOf(e.To))
	}
	return c
}
