// Package dict implements the data dictionary of Section 7.1: the global
// statistics file produced at fragmentation/allocation time. Each fragment
// is represented by its generating frequent access pattern (with or
// without minterm constraints), keyed by the pattern's canonical code —
// the DFS-coding hash table of the paper — and associated with fragment
// definitions, sizes, site mappings and cardinalities.
package dict

import (
	"sort"

	"rdffrag/internal/allocation"
	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Entry is the dictionary record for one fragment.
type Entry struct {
	Fragment *fragment.Fragment
	// Site is the site index holding the fragment (-1 if unallocated).
	Site int
	// Size is |E(F)| when the fragment was built (Fragment.Size).
	Size int
	// Cardinality is the number of matches of the generating pattern
	// within the fragment — the card() statistic behind Algorithm 3's
	// cost model: its matches in the hot graph, under the minterm's
	// filter for a horizontal fragment. Every match of the pattern lies in
	// its fragment, so no fragment graph is needed to count them.
	Cardinality int
	// stored is the triple count of the graph storing the fragment, its
	// site's, when the dictionary was built: what liveRatio rescales by.
	stored int
}

// Dictionary indexes fragments by the canonical code of their generating
// pattern. Several horizontal fragments share one pattern code.
type Dictionary struct {
	byCode map[string][]*Entry
	// patterns holds the distinct selected patterns, sorted by code.
	patterns []*mining.Pattern
	// coldGraph and coldStats give cold subquery estimation the cold
	// graph's live triple and per-predicate counts (nil without a cold
	// graph).
	coldGraph *rdf.Graph
	coldStats *rdf.Stats
	// selectivity divisor applied per constant vertex during cardinality
	// estimation (see Estimate).
	constSelectivity int
	// hotStats provides per-predicate distinct counts for precise
	// single-edge estimates.
	hotStats *rdf.Stats
}

// Build scans a placed fragmentation and its allocation and materializes
// the dictionary. It does not read the workload: the parameter stays
// because benchmark/layers calls Build with three arguments, until ROADMAP
// item 5 retires that replay.
func Build(fr *fragment.Fragmentation, alloc *allocation.Allocation, workload []*sparql.Graph) *Dictionary {
	d := count(fr)
	d.place(alloc)
	return d
}

// BuildBeside is Build of the allocation that allocate returns, run on a
// goroutine of its own beside the counting, which reads no allocation:
// only the entries' sites and stored sizes do. It returns the dictionary
// and the allocation.
func BuildBeside(fr *fragment.Fragmentation, allocate func() *allocation.Allocation) (*Dictionary, *allocation.Allocation) {
	allocated := make(chan *allocation.Allocation, 1)
	go func() { allocated <- allocate() }()
	d := count(fr)
	alloc := <-allocated
	d.place(alloc)
	return d, alloc
}

// count builds the dictionary's statistics: the fragments' entries,
// counted but not yet placed, and the hot and cold graphs' predicate
// statistics, which count themselves on first use.
func count(fr *fragment.Fragmentation) *Dictionary {
	d := &Dictionary{
		byCode:           make(map[string][]*Entry),
		constSelectivity: 10,
		hotStats:         rdf.NewStats(fr.Hot),
	}
	hsn := fr.Hot.Snapshot()
	defer hsn.Close()
	// Every fragment's pattern is counted in one batch.
	items := make([]match.Item, len(fr.Fragments))
	for i, f := range fr.Fragments {
		items[i].Q = f.Pattern.Graph
		if f.Minterm != nil {
			items[i].Opts.VertexFilter = f.Minterm.VertexFilter()
		}
	}
	cards := match.CountAll(items, hsn)
	for i, f := range fr.Fragments {
		e := &Entry{Fragment: f, Site: -1, Size: f.Size, Cardinality: cards[i]}
		if len(d.byCode[f.Pattern.Code]) == 0 {
			d.patterns = append(d.patterns, f.Pattern)
		}
		d.byCode[f.Pattern.Code] = append(d.byCode[f.Pattern.Code], e)
	}
	sort.Slice(d.patterns, func(i, j int) bool { return d.patterns[i].Code < d.patterns[j].Code })
	if fr.Cold != nil {
		d.coldGraph, d.coldStats = fr.Cold.Graph, rdf.NewStats(fr.Cold.Graph)
	}
	return d
}

// place gives each entry its fragment's site under alloc and the size of
// the graph storing it there, the fragment's Graph once alloc placed it.
func (d *Dictionary) place(alloc *allocation.Allocation) {
	for _, es := range d.byCode {
		for _, e := range es {
			if s, ok := alloc.SiteOf[e.Fragment.ID]; ok {
				e.Site = s
			}
			e.stored = e.Fragment.Graph.NumTriples()
		}
	}
}

// liveRatio rescales a Build-time statistic to a graph's current live
// size: counting exact per-pattern cardinalities on every estimate would
// put a match enumeration on the planning path, but the live/build
// triple ratio (read from an atomic, safe against the concurrent writer)
// tracks growth from delta inserts and shrinkage from tombstones well
// enough for cost comparison — without it the planner keeps seeing the
// frozen fragmentation-time cardinalities forever, however many update
// batches have landed since. A hot fragment's graph is its site's, so
// its statistic moves with the site's growth.
func liveRatio(g *rdf.Graph, buildSize int) float64 {
	if g == nil || buildSize <= 0 {
		return 1
	}
	return float64(g.NumTriples()) / float64(buildSize)
}

// Patterns returns the distinct selected patterns sorted by code. The
// slice is the dictionary's own, built once in Build; do not modify it.
func (d *Dictionary) Patterns() []*mining.Pattern { return d.patterns }

// RelevantEntries returns the entries for the subquery's pattern whose
// fragments are relevant to the (constant-bearing) subquery — the
// fragment-pruning step of Sections 5.1/5.2.
func (d *Dictionary) RelevantEntries(sub *sparql.Graph) []*Entry {
	var out []*Entry
	var rel fragment.Relevance
	for _, e := range d.byCode[mining.CanonicalCode(sub.Generalize())] {
		if rel.RelevantTo(e.Fragment, sub) {
			out = append(out, e)
		}
	}
	return out
}

// CardShape is what a cardinality estimate takes from a subquery's
// structure — everything but the values of its constants — so a planner
// that sees many subqueries of one shape resolves it once and pays only
// Estimate per query.
type CardShape struct {
	// Code is the canonical code of the generalized subquery.
	Code string
	// Entries are the dictionary entries of that code's pattern.
	Entries []*Entry

	d *Dictionary
	// consts is the number of constant vertices.
	consts int
	// boundEdge marks a single triple pattern with a constant endpoint,
	// estimated from per-predicate distinct counts.
	boundEdge      bool
	pred           rdf.ID
	sBound, oBound bool
}

// CardShape canonicalizes sub (the DFS-code hash-table probe of Section
// 7.1) and reports false if it maps to no selected pattern.
func (d *Dictionary) CardShape(sub *sparql.Graph) (CardShape, bool) {
	cs := CardShape{d: d, Code: mining.CanonicalCode(sub.Generalize())}
	cs.Entries = d.byCode[cs.Code]
	if len(cs.Entries) == 0 {
		return cs, false
	}
	for _, v := range sub.Verts {
		if !v.IsVar() {
			cs.consts++
		}
	}
	if d.hotStats != nil && len(sub.Edges) == 1 && !sub.Edges[0].IsPredVar() {
		e := sub.Edges[0]
		cs.pred = e.Pred
		cs.sBound = !sub.Verts[e.From].IsVar()
		cs.oBound = !sub.Verts[e.To].IsVar()
		cs.boundEdge = cs.sBound || cs.oBound
	}
	return cs, true
}

// Estimate estimates card(q) for a subquery of this shape from the
// statistics as they stand now: the sum of pattern cardinalities over
// relevant fragments, shrunk by a per-constant selectivity divisor
// (constants restrict matches beyond what vertical fragments record).
// It returns at least 1 so the multiplicative cost model of Algorithm 3
// stays meaningful. relevant reports whether fragment Entries[i] is
// relevant to the subquery's constants (Relevance.RelevantTo).
func (cs *CardShape) Estimate(relevant func(i int) bool) int {
	// Single triple pattern with a constant endpoint: use per-predicate
	// distinct counts for a sharper estimate than the generic divisor.
	if cs.boundEdge {
		if est := cs.d.hotStats.EstimateTriplePattern(cs.pred, cs.sBound, cs.oBound); est > 0 {
			return est
		}
		return 1
	}
	total := 0
	constrained := false
	for i, e := range cs.Entries {
		if relevant(i) {
			// Scale the Build-time cardinality by the live growth (or
			// shrinkage) of the graph storing the fragment so estimates
			// follow live updates.
			total += int(float64(e.Cardinality) * liveRatio(e.Fragment.Graph, e.stored))
			if e.Fragment.Minterm != nil {
				constrained = true
			}
		}
	}
	// Horizontal relevance already accounts for minterm constants; apply
	// the generic constant selectivity only when it did not.
	if cs.consts > 0 && !constrained {
		div := 1
		for i := 0; i < cs.consts; i++ {
			div *= cs.d.constSelectivity
		}
		total /= div
	}
	if total < 1 {
		total = 1
	}
	return total
}

// EstimateColdCard estimates card(q) for an all-cold subquery from the
// cold graph's live per-predicate counts: the minimum predicate count
// bounds the matches of a connected pattern from above far better than
// the product, and stays monotone for the cost comparison. A variable
// predicate counts every cold triple.
func (d *Dictionary) EstimateColdCard(sub *sparql.Graph) int {
	est := -1
	for _, e := range sub.Edges {
		c := 0
		switch {
		case d.coldGraph == nil:
		case e.IsPredVar():
			c = d.coldGraph.NumTriples()
		default:
			c = d.coldStats.EstimateTriplePattern(e.Pred, false, false)
		}
		if est == -1 || c < est {
			est = c
		}
	}
	if est < 1 {
		est = 1
	}
	return est
}
