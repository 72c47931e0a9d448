package allocation

import (
	"sort"

	"rdffrag/internal/fragment"
	"rdffrag/internal/sparql"
)

// allocateRef is Algorithm 2 as Allocate wrote it over a union-find, an
// affinity map re-keyed after every merge and helpers that scan every
// fragment position: the reference the explicit-cluster Allocate must
// place exactly as. It is that code verbatim but for two counters, which
// let the differential test prove its inputs reach the zero-affinity
// fallback and the sibling penalty, and for placement, left out so the
// same fragmentation can be allocated by both.
var refFallbacks, refPenalties int

// allocateRef clusters the fragmentation's hot fragments into m sites by
// iteratively merging the cluster pair with the highest inter-cluster
// affinity density, then assigns the cold fragment to the least-loaded
// site. m must be >= 1; when m exceeds the fragment count the extra sites
// stay empty.
func allocateRef(fr *fragment.Fragmentation, workload []*sparql.Graph, m int) *Allocation {
	if m < 1 {
		m = 1
	}
	frags := fr.Fragments
	aff := Affinity(frags, workload)

	// Horizontal fragmentation deliberately distributes one pattern's
	// fragments among different sites to maximize intra-query parallelism
	// (Section 5.2), so sibling fragments repel each other during
	// clustering.
	spreadSiblings := fr.Kind == fragment.HorizontalKind
	patternOf := make([]string, len(frags))
	for i, f := range frags {
		if f.Pattern != nil {
			patternOf[i] = f.Pattern.Code
		}
	}

	// Union-find clusters over fragment positions.
	n := len(frags)
	parent := make([]int, n)
	size := make([]int, n) // cluster cardinality
	load := make([]int, n) // cluster edge load, for tie-breaking
	for i := range parent {
		parent[i] = i
		size[i] = 1
		load[i] = frags[i].Size
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// Inter-cluster total affinity, keyed by root pair (lo,hi).
	inter := make(map[[2]int]int, len(aff))
	for k, w := range aff {
		inter[k] = w
	}

	clusters := n
	for clusters > m {
		// Pick the pair with the highest density: affinity / (|A|·|B|),
		// breaking ties toward the smaller combined load to keep sites
		// balanced, and then toward the smaller (lo, hi) root pair, so the
		// map's iteration order never decides — every process that
		// allocates the same input places each fragment on the same site.
		// Merge pairs with zero affinity only when necessary.
		bestA, bestB := -1, -1
		var bestDensity float64
		bestLoad := 0
		for k, w := range inter {
			a, b := find(k[0]), find(k[1])
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			d := float64(w) / float64(size[a]*size[b])
			if spreadSiblings {
				if col := siblingCollisions(parent, find, a, b, patternOf); col > 0 {
					refPenalties++
					d /= float64(1 + 4*col)
				}
			}
			l := load[a] + load[b]
			if bestA == -1 || d > bestDensity || d == bestDensity && (l < bestLoad ||
				l == bestLoad && (a < bestA || a == bestA && b < bestB)) {
				bestA, bestB, bestDensity, bestLoad = a, b, d, l
			}
		}
		if bestA == -1 {
			refFallbacks++
			// No affinity edges remain across clusters: merge the two
			// lightest clusters.
			roots := clusterRoots(parent, find)
			sort.Slice(roots, func(i, j int) bool { return load[roots[i]] < load[roots[j]] })
			bestA, bestB = roots[0], roots[1]
		}
		// Merge bestB into bestA.
		parent[bestB] = bestA
		size[bestA] += size[bestB]
		load[bestA] += load[bestB]
		// Compact the inter map lazily: re-key entries touching bestB.
		for k, w := range inter {
			a, b := find(k[0]), find(k[1])
			if a == b {
				delete(inter, k)
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			nk := [2]int{lo, hi}
			if nk != k {
				inter[nk] += w
				delete(inter, k)
			}
		}
		clusters--
	}

	// Materialize sites deterministically: order clusters by smallest
	// member fragment ID.
	roots := clusterRoots(parent, find)
	sort.Slice(roots, func(i, j int) bool {
		return minMember(parent, find, roots[i], frags) < minMember(parent, find, roots[j], frags)
	})
	siteIdx := make(map[int]int, len(roots))
	for i, r := range roots {
		siteIdx[r] = i
	}
	alloc := &Allocation{
		Sites:    make([][]*fragment.Fragment, m),
		SiteOf:   make(map[int]int, n),
		ColdSite: -1,
	}
	for i, f := range frags {
		s := siteIdx[find(i)]
		alloc.Sites[s] = append(alloc.Sites[s], f)
		alloc.SiteOf[f.ID] = s
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
	return alloc
}

// siblingCollisions counts pattern codes present in both clusters: merging
// them would co-locate fragments the horizontal strategy wants spread.
func siblingCollisions(parent []int, find func(int) int, a, b int, patternOf []string) int {
	inA := make(map[string]bool)
	for i := range parent {
		if find(i) == a && patternOf[i] != "" {
			inA[patternOf[i]] = true
		}
	}
	col := 0
	for i := range parent {
		if find(i) == b && inA[patternOf[i]] {
			col++
		}
	}
	return col
}

func clusterRoots(parent []int, find func(int) int) []int {
	seen := make(map[int]bool)
	var roots []int
	for i := range parent {
		r := find(i)
		if !seen[r] {
			seen[r] = true
			roots = append(roots, r)
		}
	}
	return roots
}

func minMember(parent []int, find func(int) int, root int, frags []*fragment.Fragment) int {
	best := 1 << 30
	for i := range parent {
		if find(i) == root && frags[i].ID < best {
			best = frags[i].ID
		}
	}
	return best
}
