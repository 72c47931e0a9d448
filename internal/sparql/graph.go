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

	vertIdx map[string]int // vertex key -> index
}

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Var  string
	Desc bool
}

// NewGraph returns an empty query graph.
func NewGraph() *Graph {
	return &Graph{vertIdx: make(map[string]int)}
}

func vertKey(v Vertex) string {
	if v.IsVar() {
		return "?" + v.Var
	}
	return fmt.Sprintf("#%d", v.Term)
}

// AddVertex interns a vertex, returning its index. Vertices with the same
// variable name or the same constant ID share an index.
func (g *Graph) AddVertex(v Vertex) int {
	if g.vertIdx == nil {
		g.vertIdx = make(map[string]int)
		for i, u := range g.Verts {
			g.vertIdx[vertKey(u)] = i
		}
	}
	k := vertKey(v)
	if i, ok := g.vertIdx[k]; ok {
		return i
	}
	i := len(g.Verts)
	g.Verts = append(g.Verts, v)
	g.vertIdx[k] = i
	return i
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

// NumVerts returns |V(Q)|.
func (g *Graph) NumVerts() int { return len(g.Verts) }

// Vars returns the sorted distinct variable names appearing in vertices
// and edge labels.
func (g *Graph) Vars() []string {
	set := make(map[string]struct{})
	for _, v := range g.Verts {
		if v.IsVar() {
			set[v.Var] = struct{}{}
		}
	}
	for _, e := range g.Edges {
		if e.IsPredVar() {
			set[e.PredVar] = struct{}{}
		}
	}
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// Predicates returns the distinct constant properties used by edges.
func (g *Graph) Predicates() []rdf.ID {
	set := make(map[rdf.ID]struct{})
	for _, e := range g.Edges {
		if !e.IsPredVar() {
			set[e.Pred] = struct{}{}
		}
	}
	ps := make([]rdf.ID, 0, len(set))
	for p := range set {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}

// EdgeSubgraph returns the query graph induced by the given edge indices.
// Vertex identity (variable names, constants) is preserved; isolated
// vertices are dropped.
func (g *Graph) EdgeSubgraph(edgeIdx []int) *Graph {
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

// Connected reports whether the query graph is connected, treating edges
// as undirected. The empty graph counts as connected.
func (g *Graph) Connected() bool {
	if len(g.Verts) <= 1 {
		return true
	}
	adj := make([][]int, len(g.Verts))
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, len(g.Verts))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == len(g.Verts)
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
func (g *Graph) String() string {
	var b strings.Builder
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(g.vertString(e.From))
		b.WriteByte(' ')
		if e.IsPredVar() {
			b.WriteString("?" + e.PredVar)
		} else {
			fmt.Fprintf(&b, "#%d", e.Pred)
		}
		b.WriteByte(' ')
		b.WriteString(g.vertString(e.To))
	}
	return b.String()
}

// StringWithDict renders the graph with decoded constant terms.
func (g *Graph) StringWithDict(d *rdf.Dict) string {
	var b strings.Builder
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(g.vertStringDict(e.From, d))
		b.WriteByte(' ')
		if e.IsPredVar() {
			b.WriteString("?" + e.PredVar)
		} else {
			b.WriteString(d.Decode(e.Pred).String())
		}
		b.WriteByte(' ')
		b.WriteString(g.vertStringDict(e.To, d))
	}
	return b.String()
}

func (g *Graph) vertString(i int) string {
	v := g.Verts[i]
	if v.IsVar() {
		return "?" + v.Var
	}
	return fmt.Sprintf("#%d", v.Term)
}

func (g *Graph) vertStringDict(i int, d *rdf.Dict) string {
	v := g.Verts[i]
	if v.IsVar() {
		return "?" + v.Var
	}
	return d.Decode(v.Term).String()
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	c.Verts = append([]Vertex(nil), g.Verts...)
	c.Edges = append([]Edge(nil), g.Edges...)
	c.Select = append([]string(nil), g.Select...)
	c.Limit = g.Limit
	c.OrderBy = append([]OrderKey(nil), g.OrderBy...)
	for i, v := range c.Verts {
		c.vertIdx[vertKey(v)] = i
	}
	return c
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
