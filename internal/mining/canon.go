// Package mining implements workload analysis from Section 4 of the paper:
// query normalization, canonical codes for query graphs (the DFS coding of
// [26] used by the data dictionary), and frequent access pattern mining.
package mining

import (
	"fmt"
	"strings"

	"rdffrag/internal/sparql"
)

// codeTuple is one edge entry of a graph code: DFS ids of the edge's
// source and target, the predicate label, and the endpoint vertex labels.
// Variable vertices and variable predicates carry label -1 so that graphs
// differing only in variable names share a code.
type codeTuple struct {
	From, To int
	Pred     int64
	FromLab  int64
	ToLab    int64
}

func (t codeTuple) less(o codeTuple) bool {
	if t.From != o.From {
		return t.From < o.From
	}
	if t.To != o.To {
		return t.To < o.To
	}
	if t.Pred != o.Pred {
		return t.Pred < o.Pred
	}
	if t.FromLab != o.FromLab {
		return t.FromLab < o.FromLab
	}
	return t.ToLab < o.ToLab
}

func (t codeTuple) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d,%d)", t.From, t.To, t.Pred, t.FromLab, t.ToLab)
}

// CanonicalCode computes an isomorphism-invariant canonical code for a
// query graph: the lexicographically minimal edge code over every
// connectivity-preserving DFS enumeration. Two query graphs receive the
// same code iff they are isomorphic up to variable renaming. Intended for
// the small graphs found in SPARQL workloads (≤ ~12 edges).
func CanonicalCode(g *sparql.Graph) string {
	if len(g.Edges) == 0 {
		return ""
	}
	c := &canonizer{g: g}
	c.run()
	parts := make([]string, len(c.best))
	for i, t := range c.best {
		parts[i] = t.String()
	}
	return strings.Join(parts, ";")
}

// CanonicalOrder returns, for each vertex of g, its DFS id in g's
// canonical code: a position that does not depend on how g happens to
// number its vertices, except among vertices an automorphism of g swaps.
func CanonicalOrder(g *sparql.Graph) []int {
	c := &canonizer{g: g}
	c.run()
	return c.bestIDs
}

type canonizer struct {
	g       *sparql.Graph
	best    []codeTuple
	bestIDs []int // ids when best was found
	has     bool

	ids  []int // vertex -> dfs id, -1 unmapped
	used []bool
	cur  []codeTuple
}

func (c *canonizer) run() {
	n := len(c.g.Verts)
	c.ids = make([]int, n)
	c.used = make([]bool, len(c.g.Edges))
	c.cur = make([]codeTuple, 0, len(c.g.Edges))
	for i := range c.ids {
		c.ids[i] = -1
	}
	c.extend(0, 0)
}

func (c *canonizer) vertLabel(v int) int64 {
	vert := c.g.Verts[v]
	if vert.IsVar() {
		return -1
	}
	return int64(vert.Term)
}

func (c *canonizer) predLabel(e sparql.Edge) int64 {
	if e.IsPredVar() {
		return -1
	}
	return int64(e.Pred)
}

// extend tries every unused edge that keeps the traversal connected,
// assigning DFS ids to newly discovered vertices, with branch-and-bound
// pruning against the best code found so far.
func (c *canonizer) extend(depth, nextID int) {
	if depth == len(c.g.Edges) {
		if !c.has || codeLess(c.cur, c.best) {
			c.best = append(c.best[:0], c.cur...)
			c.bestIDs = append(c.bestIDs[:0], c.ids...)
			c.has = true
		}
		return
	}
	for ei, e := range c.g.Edges {
		if c.used[ei] {
			continue
		}
		fromMapped := c.ids[e.From] >= 0
		toMapped := c.ids[e.To] >= 0
		if depth > 0 && !fromMapped && !toMapped {
			continue // must stay connected
		}
		// Enumerate the id assignments this edge permits.
		type assign struct{ fromID, toID, newFrom, newTo int }
		var assigns []assign
		switch {
		case fromMapped && toMapped:
			assigns = []assign{{c.ids[e.From], c.ids[e.To], -1, -1}}
		case fromMapped:
			assigns = []assign{{c.ids[e.From], nextID, -1, e.To}}
		case toMapped:
			assigns = []assign{{nextID, c.ids[e.To], e.From, -1}}
		default: // first edge: both unmapped; try both orders
			assigns = []assign{
				{0, 1, e.From, e.To},
				{1, 0, e.From, e.To},
			}
			if e.From == e.To { // self loop
				assigns = []assign{{0, 0, e.From, -1}}
			}
		}
		for _, a := range assigns {
			t := codeTuple{
				From:    a.fromID,
				To:      a.toID,
				Pred:    c.predLabel(e),
				FromLab: c.vertLabel(e.From),
				ToLab:   c.vertLabel(e.To),
			}
			// Prune: if the prefix with t already exceeds best, skip.
			if c.has && depth < len(c.best) {
				if c.best[depth].less(t) && !prefixLess(c.cur, c.best, depth) {
					continue
				}
			}
			c.used[ei] = true
			c.cur = append(c.cur, t)
			newNext := nextID
			savedFrom, savedTo := -2, -2
			if a.newFrom >= 0 {
				savedFrom = c.ids[a.newFrom]
				c.ids[a.newFrom] = a.fromID
				if a.fromID >= newNext {
					newNext = a.fromID + 1
				}
			}
			if a.newTo >= 0 {
				savedTo = c.ids[a.newTo]
				c.ids[a.newTo] = a.toID
				if a.toID >= newNext {
					newNext = a.toID + 1
				}
			}
			c.extend(depth+1, newNext)
			if a.newTo >= 0 {
				c.ids[a.newTo] = savedTo
			}
			if a.newFrom >= 0 {
				c.ids[a.newFrom] = savedFrom
			}
			c.cur = c.cur[:len(c.cur)-1]
			c.used[ei] = false
		}
	}
}

// prefixLess reports whether cur[:depth] is strictly less than best[:depth].
func prefixLess(cur, best []codeTuple, depth int) bool {
	for i := 0; i < depth && i < len(cur) && i < len(best); i++ {
		if cur[i].less(best[i]) {
			return true
		}
		if best[i].less(cur[i]) {
			return false
		}
	}
	return false
}

func codeLess(a, b []codeTuple) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].less(b[i]) {
			return true
		}
		if b[i].less(a[i]) {
			return false
		}
	}
	return len(a) < len(b)
}
