// Package allocation distributes fragments among sites (Section 6 of the
// paper): the fragment affinity metric (Definition 13) measures how often
// two fragments are accessed by the same workload query, an allocation
// graph (Definition 14) is built over it, and a PNN-style agglomerative
// clustering (Algorithm 2) merges fragments into m clusters, one per site.
package allocation

import (
	"fmt"
	"slices"
	"sort"

	"rdffrag/internal/fragment"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Allocation maps fragments to sites. Sites are numbered 0..m-1.
type Allocation struct {
	// Sites lists the fragments placed at each site.
	Sites [][]*fragment.Fragment
	// SiteOf maps fragment ID -> site index.
	SiteOf map[int]int
	// ColdSite is the site storing the cold fragment (-1 if none).
	ColdSite int
	// Graphs holds the graph each site stores: the union of its hot
	// fragments, each triple once (empty at a site with none).
	Graphs []*rdf.Graph
}

// Affinity computes the fragment affinity metric between all pairs of hot
// fragments: aff(F,F') = Σ_k use(Qk,F) × use(Qk,F').
func Affinity(frags []*fragment.Fragment, workload []*sparql.Graph) map[[2]int]int {
	aff := make(map[[2]int]int)
	var rel fragment.Relevance
	for _, q := range workload {
		var touched []int
		for i, f := range frags {
			if f.Kind == fragment.ColdKind {
				continue
			}
			if rel.RelevantTo(f, q) {
				touched = append(touched, i)
			}
		}
		for a := 0; a < len(touched); a++ {
			for b := a + 1; b < len(touched); b++ {
				key := [2]int{touched[a], touched[b]}
				aff[key]++
			}
		}
	}
	return aff
}

// cluster is one cluster of Algorithm 2's agglomerative clustering,
// named by its root, the fragment position it grew from: a merge of B
// into A keeps A's.
type cluster struct {
	members []int // fragment positions, ascending
	load    int   // edge load, the members' sizes summed: for tie-breaking
	// codes counts the members per pattern code, under horizontal
	// fragmentation only.
	codes map[string]int
}

// collisions counts b's members whose pattern code a holds too: merging
// them would co-locate fragments the horizontal strategy wants spread.
func collisions(a, b *cluster) int {
	col := 0
	for code, k := range b.codes {
		if a.codes[code] > 0 {
			col += k
		}
	}
	return col
}

// Allocate clusters the fragmentation's hot fragments into m sites by
// iteratively merging the cluster pair with the highest inter-cluster
// affinity density, then assigns the cold fragment to the least-loaded
// site. m must be >= 1; when m exceeds the fragment count the extra sites
// stay empty.
func Allocate(fr *fragment.Fragmentation, workload []*sparql.Graph, m int) *Allocation {
	if m < 1 {
		m = 1
	}
	frags := fr.Fragments
	n := len(frags)
	cs := make([]*cluster, n) // by root; nil once merged away
	for i, f := range frags {
		cs[i] = &cluster{members: []int{i}, load: f.Size, codes: map[string]int{}}
		// Horizontal fragmentation deliberately distributes one pattern's
		// fragments among different sites to maximize intra-query
		// parallelism (Section 5.2), so sibling fragments repel each
		// other during clustering.
		if fr.Kind == fragment.HorizontalKind {
			cs[i].codes[f.Pattern.Code] = 1
		}
	}
	// roots lists the live clusters' roots by smallest member: the order
	// the fallback's unstable sort by load starts from, which decides its
	// load ties.
	roots := func() []int {
		var rs []int
		for r, c := range cs {
			if c != nil {
				rs = append(rs, r)
			}
		}
		slices.SortFunc(rs, func(x, y int) int { return cs[x].members[0] - cs[y].members[0] })
		return rs
	}
	// inter[a][b], a < b, is the total affinity between the clusters
	// rooted at a and b.
	inter := make([][]int, n)
	for i := range inter {
		inter[i] = make([]int, n)
	}
	for k, w := range Affinity(frags, workload) {
		inter[k[0]][k[1]] = w
	}
	at := func(a, b int) *int {
		return &inter[min(a, b)][max(a, b)]
	}

	for live := n; live > m; live-- {
		// Pick the pair with the highest density: affinity / (|A|·|B|),
		// breaking ties toward the smaller combined load to keep sites
		// balanced, and then toward the smaller (a, b) root pair, the
		// first met — every process that allocates the same input places
		// each fragment on the same site. Merge pairs with zero affinity
		// only when necessary.
		bestA, bestB := -1, -1
		var bestDensity float64
		bestLoad := 0
		for a, ca := range cs {
			if ca == nil {
				continue
			}
			for b := a + 1; b < n; b++ {
				cb, w := cs[b], inter[a][b]
				if cb == nil || w == 0 {
					continue
				}
				d := float64(w) / float64(len(ca.members)*len(cb.members))
				if col := collisions(ca, cb); col > 0 {
					d /= float64(1 + 4*col)
				}
				l := ca.load + cb.load
				if bestA == -1 || d > bestDensity || d == bestDensity && l < bestLoad {
					bestA, bestB, bestDensity, bestLoad = a, b, d, l
				}
			}
		}
		if bestA == -1 {
			// No affinity edges remain across clusters: merge the two
			// lightest.
			rs := roots()
			sort.Slice(rs, func(i, j int) bool { return cs[rs[i]].load < cs[rs[j]].load })
			bestA, bestB = rs[0], rs[1]
		}
		// Merge bestB into bestA.
		a, b := cs[bestA], cs[bestB]
		a.members = append(a.members, b.members...)
		slices.Sort(a.members)
		a.load += b.load
		for code, k := range b.codes {
			a.codes[code] += k
		}
		cs[bestB] = nil
		for r, c := range cs {
			if c != nil && r != bestA {
				*at(bestA, r) += *at(bestB, r)
			}
		}
	}

	// Materialize sites deterministically: order clusters by smallest
	// member fragment ID, and each site's fragments by position.
	minID := func(r int) int {
		id := frags[r].ID
		for _, i := range cs[r].members {
			id = min(id, frags[i].ID)
		}
		return id
	}
	rs := roots()
	sort.Slice(rs, func(i, j int) bool { return minID(rs[i]) < minID(rs[j]) })
	alloc := &Allocation{
		Sites:    make([][]*fragment.Fragment, m),
		SiteOf:   make(map[int]int, n),
		ColdSite: -1,
	}
	for s, r := range rs {
		for _, i := range cs[r].members {
			alloc.Sites[s] = append(alloc.Sites[s], frags[i])
			alloc.SiteOf[frags[i].ID] = s
		}
	}
	// Cold fragment to the least-loaded site.
	if fr.Cold != nil && fr.Cold.Graph.NumTriples() > 0 {
		best, bestLoad := 0, -1
		for s := range alloc.Sites {
			l := 0
			for _, f := range alloc.Sites[s] {
				l += f.Size
			}
			if bestLoad == -1 || l < bestLoad {
				best, bestLoad = s, l
			}
		}
		alloc.Sites[best] = append(alloc.Sites[best], fr.Cold)
		alloc.SiteOf[fr.Cold.ID] = best
		alloc.ColdSite = best
	}
	alloc.place(fr)
	return alloc
}

// place builds each site's graph, frozen over the union of the edge sets
// of the hot fragments allocated there, and makes it those fragments'
// Graph; then it drops the edge sets. A triple that several of a site's
// fragments hold is stored once. The cold fragment keeps the cold graph.
// A fragmentation is placed once: allocating it again, with its edge sets
// gone, panics.
func (a *Allocation) place(fr *fragment.Fragmentation) {
	a.Graphs = make([]*rdf.Graph, len(a.Sites))
	for s, frags := range a.Sites {
		var union *rdf.EdgeSet
		for _, f := range frags {
			switch {
			case f.Kind == fragment.ColdKind:
			case f.Edges == nil:
				panic(fmt.Sprintf("allocation: fragment %d has no edge set: its fragmentation was placed already", f.ID))
			case union == nil:
				union = f.Edges.Clone()
			default:
				union.Union(f.Edges)
			}
		}
		var triples []rdf.Triple
		if union != nil {
			triples = union.Triples()
		}
		a.Graphs[s] = rdf.NewFrozen(fr.Hot.Dict, triples)
		for _, f := range frags {
			if f.Kind != fragment.ColdKind {
				f.Graph, f.Edges = a.Graphs[s], nil
			}
		}
	}
}

// RoundRobin is the ablation baseline for Allocate: fragments are dealt
// to sites in ID order with no affinity awareness.
func RoundRobin(fr *fragment.Fragmentation, m int) *Allocation {
	if m < 1 {
		m = 1
	}
	alloc := &Allocation{
		Sites:    make([][]*fragment.Fragment, m),
		SiteOf:   make(map[int]int),
		ColdSite: -1,
	}
	for i, f := range fr.Fragments {
		s := i % m
		alloc.Sites[s] = append(alloc.Sites[s], f)
		alloc.SiteOf[f.ID] = s
	}
	if fr.Cold != nil && fr.Cold.Graph.NumTriples() > 0 {
		s := len(fr.Fragments) % m
		alloc.Sites[s] = append(alloc.Sites[s], fr.Cold)
		alloc.SiteOf[fr.Cold.ID] = s
		alloc.ColdSite = s
	}
	alloc.place(fr)
	return alloc
}

// Balance returns the ratio of the heaviest site's edge load, the sizes
// of its fragments summed, to the average load — 1.0 is perfectly
// balanced. Used by the offline-time and throughput experiments to
// characterize allocations.
func (a *Allocation) Balance() float64 {
	if len(a.Sites) == 0 {
		return 1
	}
	total, max := 0, 0
	for _, site := range a.Sites {
		l := 0
		for _, f := range site {
			l += f.Size
		}
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	avg := float64(total) / float64(len(a.Sites))
	return float64(max) / avg
}
