// Package fragment implements Sections 3 and 5 of the paper: the hot/cold
// graph split, vertical fragmentation from frequent access patterns
// (Definition 10), and horizontal fragmentation from structural minterm
// predicates (Definitions 11–12).
//
// The hot and cold graphs are built frozen by rdf.NewFrozen from lists of
// distinct triples. A fragment builds no graph: a pattern's fragment is
// the matched edge set fap.Select sized the pattern by, and only a
// minterm's fragment is matched here, under the minterm's vertex filter,
// into an edge set of its own. Placement (allocation) turns the edge sets
// a site is allocated into that site's one graph.
package fragment

import (
	"fmt"
	"sort"
	"strings"

	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
)

// Kind distinguishes how a fragment was generated.
type Kind uint8

const (
	// VerticalKind fragments hold all matches of one access pattern.
	VerticalKind Kind = iota
	// HorizontalKind fragments hold the matches of one access pattern
	// restricted by a structural minterm predicate.
	HorizontalKind
	// ColdKind is the single fragment holding the cold graph.
	ColdKind
)

func (k Kind) String() string {
	switch k {
	case VerticalKind:
		return "vertical"
	case HorizontalKind:
		return "horizontal"
	case ColdKind:
		return "cold"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fragment is one fragment of the RDF graph (Definition 3 allows overlap):
// a description — pattern, minterm, size — of what a site is asked about,
// not a copy of the data. A hot fragment is built as the edge set its
// pattern's matches use; placement unions the edge sets allocated to a
// site into the one graph the site stores and drops them.
type Fragment struct {
	ID      int
	Kind    Kind
	Pattern *mining.Pattern // generating FAP; nil for the cold fragment
	Minterm *Minterm        // non-nil only for horizontal fragments
	// Size is |E(F)| when the fragment was built: the load allocation
	// balances, the figure redundancy sums and the size Explain reports.
	Size int
	// Edges is a hot fragment's own triples, over the hot graph's
	// snapshot, from the fragmenter until placement; nil after it and for
	// the cold fragment.
	Edges *rdf.EdgeSet
	// Graph is the graph that stores the fragment: for a hot fragment its
	// site's graph, which the site's other hot fragments share, from
	// placement on; for the cold fragment the cold graph.
	Graph *rdf.Graph
}

// Key identifies the fragment's generating pattern (with constraints) in
// the data dictionary.
func (f *Fragment) Key() string {
	switch {
	case f.Kind == ColdKind:
		return "cold"
	case f.Minterm != nil:
		return f.Minterm.Key()
	default:
		return f.Pattern.Code
	}
}

// Fragmentation is a complete fragmentation F of the RDF graph.
type Fragmentation struct {
	Kind      Kind
	Fragments []*Fragment
	Hot       *rdf.Graph
	Cold      *Fragment // cold graph as a single black-box fragment
}

// All returns hot fragments plus the cold fragment (if non-empty).
func (fr *Fragmentation) All() []*Fragment {
	out := append([]*Fragment(nil), fr.Fragments...)
	if fr.Cold != nil && fr.Cold.Graph.NumTriples() > 0 {
		out = append(out, fr.Cold)
	}
	return out
}

// Redundancy returns the ratio of the total number of edges over all
// fragments (hot + cold) to the number of edges in the original graph
// (Table 1's metric). It is the logical figure Algorithm 1 budgets, the
// fragments' build sizes summed; a site stores a triple its fragments
// share once.
func (fr *Fragmentation) Redundancy(original *rdf.Graph) float64 {
	return fr.RedundancyOf(original.NumTriples())
}

// RedundancyOf is Redundancy over an original graph of n triples.
func (fr *Fragmentation) RedundancyOf(n int) float64 {
	if n == 0 {
		return 0
	}
	total := 0
	for _, f := range fr.All() {
		total += f.Size
	}
	return float64(total) / float64(n)
}

// Constraint is one structural simple predicate p(var) θ Value bound to a
// pattern vertex (Section 5.2.1), in positive (Equal) or negated form.
type Constraint struct {
	Vertex int // pattern vertex index
	Equal  bool
	Value  rdf.ID
}

// Minterm is a structural minterm predicate: a conjunction of simple
// predicates over one access pattern.
type Minterm struct {
	Pattern     *mining.Pattern
	Constraints []Constraint
}

// Key renders a canonical dictionary key: pattern code plus sorted
// constraint terms.
func (m *Minterm) Key() string {
	parts := make([]string, len(m.Constraints))
	for i, c := range m.Constraints {
		op := "!="
		if c.Equal {
			op = "="
		}
		parts[i] = fmt.Sprintf("v%d%s%d", c.Vertex, op, c.Value)
	}
	sort.Strings(parts)
	return m.Pattern.Code + "|" + strings.Join(parts, "&")
}

// VertexFilter adapts the minterm to match.Options.VertexFilter.
func (m *Minterm) VertexFilter() func(qv int, id rdf.ID) bool {
	byVertex := make(map[int][]Constraint)
	for _, c := range m.Constraints {
		byVertex[c.Vertex] = append(byVertex[c.Vertex], c)
	}
	return func(qv int, id rdf.ID) bool {
		for _, c := range byVertex[qv] {
			if (id == c.Value) != c.Equal {
				return false
			}
		}
		return true
	}
}

// String renders the minterm with decoded constants for debugging.
func (m *Minterm) String() string {
	parts := make([]string, len(m.Constraints))
	for i, c := range m.Constraints {
		op := "≠"
		if c.Equal {
			op = "="
		}
		parts[i] = fmt.Sprintf("p(v%d)%s%d", c.Vertex, op, c.Value)
	}
	return strings.Join(parts, " ∧ ")
}
