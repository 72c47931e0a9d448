package match

import (
	"math/bits"
	"slices"
	"sort"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Bindings is a relation over Vars: the tabular form of matches that sites
// ship and the distributed join executor joins. Every row is exactly
// len(Vars) wide, so the table is one flat array and a row is a position
// in it, not a slice of its own.
type Bindings struct {
	Vars []string
	// Rows holds the rows back to back: row i is
	// Rows[i*len(Vars) : (i+1)*len(Vars)].
	Rows []rdf.ID
	// Nullary is the number of rows when Vars is empty. A row is then the
	// empty tuple, which Rows cannot count: the answer of an all-constant
	// pattern is whether, and how often, it matched. It is ignored when the
	// table has variables.
	Nullary int
	taken   bool // Rows is a whole array of the free list's (Recyclable)
}

// NewBindings returns the table of n rows over vars stored in rows.
func NewBindings(vars []string, rows []rdf.ID, n int) *Bindings {
	b := &Bindings{Vars: vars, Rows: rows}
	if len(vars) == 0 {
		b.Nullary = n
	}
	return b
}

// Len returns the number of rows.
func (b *Bindings) Len() int {
	if w := len(b.Vars); w > 0 {
		return len(b.Rows) / w
	}
	return b.Nullary
}

// Dedup sorts the rows lexicographically and removes duplicates (matches
// can repeat a projection). Nothing is allocated: the rows are records
// swapped and compacted in place.
func (b *Bindings) Dedup() {
	w, n := len(b.Vars), b.Len()
	switch {
	case w == 0:
		b.Nullary = min(n, 1)
	case n <= 1:
	case w == 1:
		slices.Sort(b.Rows)
		b.Rows = slices.Compact(b.Rows)
	default:
		(&records{b.Rows, w}).sort(0, n, 2*bits.Len(uint(n)))
		kept := 1
		for i := 1; i < n; i++ {
			if row := b.Rows[i*w : (i+1)*w]; RowCompare(b.Rows[(kept-1)*w:kept*w], row) != 0 {
				copy(b.Rows[kept*w:], row)
				kept++
			}
		}
		b.Rows = b.Rows[:kept*w]
	}
}

// SortStable orders the rows stably by less, which compares rows i and j
// where they lie when it is called: rows are swapped whole, in place.
func (b *Bindings) SortStable(less func(i, j int) bool) {
	if w := len(b.Vars); w > 0 {
		sort.Stable(byLess{&records{b.Rows, w}, less})
	}
}

type byLess struct {
	*records
	less func(i, j int) bool
}

func (s byLess) Less(i, j int) bool { return s.less(i, j) }

// records sorts the fixed-width rows of a flat array as whole records.
type records struct {
	rows []rdf.ID
	w    int
}

func (r *records) Len() int { return len(r.rows) / r.w }

func (r *records) cmp(i, j int) int {
	return RowCompare(r.rows[i*r.w:(i+1)*r.w], r.rows[j*r.w:(j+1)*r.w])
}

func (r *records) Less(i, j int) bool { return r.cmp(i, j) < 0 }

func (r *records) Swap(i, j int) {
	a, b := r.rows[i*r.w:(i+1)*r.w], r.rows[j*r.w:(j+1)*r.w]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// sort orders records lo..hi-1: a median-of-three quicksort on the
// concrete type, insertion sort below 12 records, and sort.Sort — the same
// order through an interface, at about twice the cost — once depth
// partitions have not sufficed.
func (r *records) sort(lo, hi, depth int) {
	for hi-lo > 12 {
		if depth == 0 {
			sort.Sort(&records{r.rows[lo*r.w : hi*r.w], r.w})
			return
		}
		depth--
		// The median of the first, middle and last record becomes the
		// pivot and waits at lo.
		mid, last := lo+(hi-lo)/2, hi-1
		if r.cmp(mid, lo) < 0 {
			r.Swap(mid, lo)
		}
		if r.cmp(last, mid) < 0 {
			if r.Swap(last, mid); r.cmp(mid, lo) < 0 {
				r.Swap(mid, lo)
			}
		}
		r.Swap(lo, mid)
		i, j := lo+1, last
		for {
			for i <= j && r.cmp(i, lo) < 0 {
				i++
			}
			for i <= j && r.cmp(j, lo) > 0 {
				j--
			}
			if i >= j {
				break
			}
			r.Swap(i, j)
			i, j = i+1, j-1
		}
		r.Swap(lo, j)
		// Recurse into the smaller side, loop on the larger.
		if j-lo < hi-j {
			r.sort(lo, j, depth)
			lo = j + 1
		} else {
			r.sort(j+1, hi, depth)
			hi = j
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && r.cmp(j, j-1) < 0; j-- {
			r.Swap(j, j-1)
		}
	}
}

// RowCompare orders two binding rows of one width lexicographically.
func RowCompare(a, b []rdf.ID) int {
	b = b[:len(a)]
	for i, v := range a {
		if v != b[i] {
			if v < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// projector maps a match onto the query's variables in q.Vars() order:
// column i takes query vertex vert[i] (the variable's first occurrence)
// or, where vert[i] is negative, the predicate variable vars[i]. It is
// the one projection behind ToBindings and FindBindings.
type projector struct {
	vars []string
	vert []int
}

func newProjector(q *sparql.Graph, vars []string) projector {
	if vars == nil {
		vars = q.Vars()
	}
	p := projector{vars: vars}
	p.vert = make([]int, len(p.vars))
	for i, name := range p.vars {
		p.vert[i] = -1
		for vi, v := range q.Verts {
			if v.IsVar() && v.Var == name {
				p.vert[i] = vi
				break
			}
		}
	}
	return p
}

// appendRow appends m's row to the flat array rows; a predicate variable
// the match left unbound becomes NoID.
func (p *projector) appendRow(rows []rdf.ID, m *Match) []rdf.ID {
	n := len(rows)
	rows = slices.Grow(rows, len(p.vert))[:n+len(p.vert)]
	for i, vi := range p.vert {
		if vi >= 0 {
			rows[n+i] = m.Vertex[vi]
		} else if id, ok := m.Pred[p.vars[i]]; ok {
			rows[n+i] = id
		} else {
			rows[n+i] = rdf.NoID
		}
	}
	return rows
}

// ToBindings projects matches onto the query's variables (vertex variables
// plus variable predicates), in sorted variable order.
func ToBindings(q *sparql.Graph, ms []Match) *Bindings {
	p := newProjector(q, nil)
	rows := make([]rdf.ID, 0, len(ms)*len(p.vars))
	for i := range ms {
		rows = p.appendRow(rows, &ms[i])
	}
	return NewBindings(p.vars, rows, len(ms))
}

// FindBindings enumerates matches like FindBatches — same search, same
// batch boundaries — but hands fn each batch already projected onto the
// query's variables (what ToBindings would make of it), without retaining
// a Match: rows are written straight from the searcher's reused Match
// into the batch's flat array. The batch and its
// array belong to fn: the matcher keeps no reference and never writes to
// them again, so fn may retain them — the control-site join reads the rows
// of the batches it keeps, in place, until it ends, and its last reader
// calls Release, which hands the array back to the free list. It powers
// streaming subquery evaluation: sites ship bindings to the control-site
// join as they are found.
func FindBindings(q *sparql.Graph, g *rdf.Snapshot, opts Options, size int, fn func(*Bindings) bool) {
	p := newProjector(q, opts.Vars)
	if len(p.vars) == 0 {
		// An all-constant pattern: its rows are empty tuples, counted by
		// zero-sized elements through the same batching.
		findBatched(q, g, opts, size, 1, func(units []struct{}, _ *Match) []struct{} {
			return append(units, struct{}{})
		}, onHeap[struct{}], func([]struct{}) {}, func(units []struct{}) bool {
			return fn(&Bindings{Vars: p.vars, Nullary: len(units)})
		})
		return
	}
	findBatched(q, g, opts, size, len(p.vars), p.appendRow, TakeRows, GiveRows, func(rows []rdf.ID) bool {
		return fn(&Bindings{Vars: p.vars, Rows: rows, taken: true})
	})
}
