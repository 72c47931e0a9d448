package fragment

import (
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// HotCold is the result of dividing an RDF graph by property access
// frequency (Definitions 5–6).
type HotCold struct {
	Hot  *rdf.Graph
	Cold *rdf.Graph
	// FreqProps holds the frequent properties (appearing in >= Theta
	// workload queries).
	FreqProps map[rdf.ID]bool
	// PropQueries counts, per property, the number of workload queries
	// mentioning it.
	PropQueries map[rdf.ID]int
}

// SplitHotCold divides g into hot and cold graphs: an edge is hot iff its
// property occurs in at least theta workload queries. Variable-predicate
// query edges do not contribute to any property's count.
func SplitHotCold(g *rdf.Graph, workload []*sparql.Graph, theta int) *HotCold {
	if theta < 1 {
		theta = 1
	}
	counts := make(map[rdf.ID]int)
	for _, q := range workload {
		seen := make(map[rdf.ID]bool)
		for _, e := range q.Edges {
			if e.IsPredVar() || seen[e.Pred] {
				continue
			}
			seen[e.Pred] = true
			counts[e.Pred]++
		}
	}
	freq := make(map[rdf.ID]bool)
	for p, c := range counts {
		if c >= theta {
			freq[p] = true
		}
	}
	// Built frozen: pattern selection and fragment construction match
	// against Hot heavily, and Cold is served to sites as-is.
	all := g.Triples()
	nHot := 0
	for _, t := range all {
		if freq[t.P] {
			nHot++
		}
	}
	hot, cold := make([]rdf.Triple, 0, nHot), make([]rdf.Triple, 0, len(all)-nHot)
	for _, t := range all {
		if freq[t.P] {
			hot = append(hot, t)
		} else {
			cold = append(cold, t)
		}
	}
	return &HotCold{
		Hot:         rdf.NewFrozen(g.Dict, hot),
		Cold:        rdf.NewFrozen(g.Dict, cold),
		FreqProps:   freq,
		PropQueries: counts,
	}
}

// NumTriples counts the triples of the graph the split divides: the hot
// graph's and the cold graph's, each once.
func (hc *HotCold) NumTriples() int {
	hot, cold := hc.Hot.Snapshot(), hc.Cold.Snapshot()
	defer hot.Close()
	defer cold.Close()
	return UnionLen(hot, cold, hc.FreqProps)
}

// UnionLen counts the union of a hot and a cold snapshot, freq naming
// the frequent properties. A deployment's cold graph is also its cold
// fragment, the catch-all that keeps a hot triple completing no pattern
// match reachable, so it may hold such a triple beside the hot graph: a
// cold triple labelled by a frequent property is counted as hot.
func UnionLen(hot, cold *rdf.Snapshot, freq map[rdf.ID]bool) int {
	n := hot.NumTriples() + cold.NumTriples()
	for p := range freq {
		n -= cold.PredicateCount(p)
	}
	return n
}
