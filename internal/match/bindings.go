package match

import (
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// projector maps a match onto the query's variables in q.Vars() order:
// column i takes query vertex vert[i] (the variable's first occurrence)
// or, where vert[i] is negative, the predicate variable vars[i]. It is
// the one projection behind ToBindings and FindBindings.
type projector struct {
	vars []string
	vert []int
}

func newProjector(q *sparql.Graph) projector {
	p := projector{vars: q.Vars()}
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

// project fills row, len(p.vars) wide, from m; a predicate variable the
// match left unbound becomes NoID.
func (p *projector) project(m *Match, row []rdf.ID) {
	for i, vi := range p.vert {
		if vi >= 0 {
			row[i] = m.Vertex[vi]
		} else if id, ok := m.Pred[p.vars[i]]; ok {
			row[i] = id
		} else {
			row[i] = rdf.NoID
		}
	}
}

// rowChunks carves the rows a projector fills out of chunks that grow
// geometrically from 4 rows to size rows: a three-row answer pays for
// four rows, a long one for one chunk per batch. Nothing is recycled, so
// a carved row belongs to whoever receives it.
type rowChunks struct {
	p    projector
	size int
	grow int      // rows in the current chunk
	buf  []rdf.ID // unused tail of the current chunk
}

// carve projects m into a row of its own, capped so that appending to it
// cannot reach its neighbour.
func (c *rowChunks) carve(m *Match) []rdf.ID {
	w := len(c.p.vars)
	if c.buf == nil || len(c.buf) < w {
		c.grow = min(max(4, 2*c.grow), c.size)
		c.buf = make([]rdf.ID, c.grow*w)
	}
	row := c.buf[:w:w]
	c.buf = c.buf[w:]
	c.p.project(m, row)
	return row
}

// FindBindings enumerates matches like FindBatches — same search, same
// batch boundaries, same Parallelism and Deterministic semantics — but
// hands fn each batch already projected onto the query's variables (what
// ToBindings would make of it), without retaining a Match: rows are
// written straight from the searcher's reused Match. The batch belongs
// to fn. It powers streaming subquery evaluation: sites ship bindings to
// the control-site join as they are found.
func FindBindings(q *sparql.Graph, g *rdf.Snapshot, opts Options, size int, fn func(*Bindings) bool) {
	p := newProjector(q)
	findBatched(q, g, opts, size, func(size int) func(*Match) []rdf.ID {
		return (&rowChunks{p: p, size: size}).carve
	}, func(rows [][]rdf.ID) bool {
		return fn(&Bindings{Vars: p.vars, Rows: rows})
	})
}
