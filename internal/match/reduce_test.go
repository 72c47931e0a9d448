package match

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// enumeratedEdges and enumeratedCount are MatchedEdges and Count by the
// sequential search, whatever the pattern: the reducer's reference.
func enumeratedEdges(q *sparql.Graph, g *rdf.Snapshot, opts Options) *rdf.EdgeSet {
	set := g.NewEdgeSet()
	ForEach(q, g, opts, edgeMarker(set, len(q.Edges)))
	return set
}

func enumeratedCount(q *sparql.Graph, g *rdf.Snapshot, opts Options) int {
	n := 0
	ForEach(q, g, opts, func(*Match) bool { n++; return true })
	return n
}

// reduces reports whether MatchedEdges and Count reduce q rather than
// enumerate it.
func reduces(q *sparql.Graph, g *rdf.Snapshot, opts Options) bool {
	r := newReducer(q, g, opts)
	if r != nil {
		r.release()
	}
	return r != nil
}

// treeCase is what FuzzTreeReducer decodes from its input: a data graph,
// a pattern, an optional vertex filter, and whether the pattern is a tree,
// which the reducer must take over a compacted snapshot.
type treeCase struct {
	g      *rdf.Graph
	q      *sparql.Graph
	filter func(qv int, id rdf.ID) bool
	tree   bool
}

// Flags of a treeCase's first byte.
const (
	caseDelta     = 1 << iota // part of the graph is a delta of inserts and deletes
	caseFilter                // a vertex filter
	caseExtraEdge             // one more pattern edge: a cycle, a parallel edge or a self-loop
	casePredVar               // a predicate variable, on one edge or two
	caseConstant              // a constant pattern vertex
)

// decodeTreeCase reads a treeCase from data, taking a zero for every byte
// past its end. Data vertices are IDs 0 to 5 and predicates 16 to 18, so
// that random triples repeat predicates and close data self-loops; a
// pattern predicate may be one no triple has.
func decodeTreeCase(data []byte) treeCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	flags := next()
	shape := next()
	nv, np := 2+shape%5, 1+(shape>>4)%3
	triples := make([]rdf.Triple, next()%32)
	for i := range triples {
		so, p := next(), next()
		triples[i] = rdf.Triple{S: rdf.ID(so % nv), P: rdf.ID(16 + p%np), O: rdf.ID((so >> 4) % nv)}
	}

	var c treeCase
	if flags&caseDelta == 0 {
		c.g = rdf.NewFrozen(nil, triples)
	} else {
		split, dels := next()%(len(triples)+1), next()
		c.g = rdf.NewFrozen(nil, slices.Clone(triples[:split]))
		c.g.SetAutoCompact(-1)
		for _, t := range triples[split:] {
			c.g.Add(t)
		}
		for i, t := range triples {
			if dels>>(i%8)&1 != 0 {
				c.g.Delete(t)
			}
		}
		if len(triples) > 0 && dels&1 != 0 {
			c.g.Add(triples[len(triples)-1]) // deleted, and back
		}
	}

	c.q = sparql.NewGraph()
	edges := 1 + next()%6
	for v := 0; v <= edges; v++ {
		c.q.Verts = append(c.q.Verts, sparql.Vertex{Var: string(rune('a' + v))})
	}
	for i := 0; i < edges; i++ {
		b := next()
		e := sparql.Edge{From: i + 1, To: b % (i + 1), Pred: rdf.ID(16 + (b>>4)%(np+1))}
		if b&8 != 0 {
			e.From, e.To = e.To, e.From
		}
		c.q.Edges = append(c.q.Edges, e)
	}
	c.tree = true
	if flags&caseConstant != 0 {
		b := next()
		c.q.Verts[b%len(c.q.Verts)] = sparql.Vertex{Term: rdf.ID((b >> 4) % (nv + 1))}
	}
	if flags&caseFilter != 0 {
		var mask uint64
		for i := 0; i < 8; i++ {
			mask = mask<<8 | uint64(next())
		}
		c.filter = func(qv int, id rdf.ID) bool { return mask>>((qv*7+int(id))%64)&1 != 0 }
	}
	if flags&caseExtraEdge != 0 {
		a, b := next(), next()
		c.q.Edges = append(c.q.Edges, sparql.Edge{From: a % len(c.q.Verts), To: b % len(c.q.Verts), Pred: rdf.ID(16 + (a>>4)%np)})
		c.tree = false
	}
	if flags&casePredVar != 0 {
		b := next()
		c.q.Edges[b%len(c.q.Edges)].PredVar = "p"
		c.q.Edges[(b>>4)%len(c.q.Edges)].PredVar = "p"
		c.tree = false
	}
	return c
}

// FuzzTreeReducer holds MatchedEdges and Count to the sequential search on
// small graphs — compacted or under a delta of inserts and deletes — for
// tree patterns of up to six edges, with a constant vertex and a vertex
// filter or without, and for the patterns one more edge or a predicate
// variable puts back on the search. The reducer must take every tree over
// a compacted snapshot and nothing else: a delta puts a tree back on the
// search too.
func FuzzTreeReducer(f *testing.F) {
	f.Add([]byte{0, 0x12, 4, 0x10, 0, 0x21, 0, 0x01, 1, 0x12, 1, 2, 0x08, 0x10})
	f.Add([]byte{caseConstant, 0x03, 6, 0x10, 0, 0x21, 0, 0x32, 0, 0x11, 0, 0x00, 0, 0x23, 0, 1, 0, 0x10})
	f.Add([]byte{caseDelta | caseFilter, 0x14, 8, 0x10, 0, 0x21, 1, 0x32, 0, 0x43, 1, 0x01, 0, 0x12, 1, 0x23, 0, 0x34, 1, 3, 0x55, 3, 0x00, 0x18, 0x21, 0xff, 0x0f, 0xf0, 0xaa, 0x55, 0x33, 0xcc, 0x99})
	f.Add([]byte{caseExtraEdge, 0x12, 3, 0x10, 0, 0x21, 0, 0x02, 0, 1, 0x00, 0x01, 0x00})
	f.Add([]byte{casePredVar, 0x22, 4, 0x10, 0, 0x21, 1, 0x02, 0, 0x11, 1, 1, 0x08, 0x01})
	// ?b <16> ?a . ?c <16> ?b over (3 16 3) and (5 16 4): ?b binds 4 on the
	// pass up, and only the pass down drops it, with (5 16 4).
	f.Add([]byte{0, 0x04, 2, 0x33, 0, 0x41, 0, 1, 0x00, 0x01})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 24+r.Intn(64))
		r.Read(seed)
		seed[0] &= caseFilter | caseConstant
		if i%4 == 1 {
			seed[0] |= caseDelta
		}
		seed[1] &= 0x1f // one predicate or two, so that patterns match
		seed[2] |= 0x18 // 24 triples or more
		if i%8 == 7 {
			seed[0] |= caseExtraEdge << (i / 8 % 2)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeTreeCase(data)
		sn := c.g.Snapshot()
		defer sn.Close()
		opts := Options{VertexFilter: c.filter}
		if got, want := reduces(c.q, sn, opts), c.tree && sn.Compacted(); got != want {
			t.Fatalf("the reducer takes the pattern: %v, want %v (%d vertices, edges %+v)", got, want, len(c.q.Verts), c.q.Edges)
		}
		want, got := enumeratedEdges(c.q, sn, opts), MatchedEdges(c.q, sn, opts)
		if w, g := want.Triples(), got.Triples(); !slices.Equal(g, w) || got.Len() != len(w) {
			t.Fatalf("MatchedEdges = %v (Len %d), the search's %v; pattern %+v %+v over %v", g, got.Len(), w, c.q.Verts, c.q.Edges, sn.Triples())
		}
		if want, got := enumeratedCount(c.q, sn, opts), Count(c.q, sn, opts); got != want {
			t.Fatalf("Count = %d, the search's %d; pattern %+v %+v over %v", got, want, c.q.Verts, c.q.Edges, sn.Triples())
		}
	})
}

// TestBatchEqualsOneAtATime: MatchedEdgesAll and CountAll give, at each
// index, what MatchedEdges and Count give for that item alone, whatever
// the number of workers — over one compacted graph and patterns decoded
// as FuzzTreeReducer decodes them: trees with vertex filters and
// constants, which the reducer takes, and cycles and predicate variables,
// which the search takes. The race detector sees the workers share the
// snapshot and the reducer pool.
func TestBatchEqualsOneAtATime(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	triples := make([]rdf.Triple, 60)
	for i := range triples {
		triples[i] = rdf.Triple{S: rdf.ID(r.Intn(6)), P: rdf.ID(16 + r.Intn(3)), O: rdf.ID(r.Intn(6))}
	}
	g := rdf.NewFrozen(nil, triples)
	sn := g.Snapshot()
	defer sn.Close()

	var items []Item
	var filtered, searched, cyclic int
	for i := 0; i < 64; i++ {
		seed := make([]byte, 48)
		r.Read(seed)
		seed[0] &= caseFilter | caseConstant | caseExtraEdge | casePredVar
		if i%3 != 0 {
			seed[0] &^= caseExtraEdge | casePredVar
		}
		seed[1] &= 0x2f
		c := decodeTreeCase(seed)
		items = append(items, Item{Q: c.q, Opts: Options{VertexFilter: c.filter}})
		if c.filter != nil {
			filtered++
		}
		if !reduces(c.q, sn, items[i].Opts) {
			searched++
		}
		if seed[0]&(caseExtraEdge|casePredVar) == caseExtraEdge {
			cyclic++
		}
	}
	if filtered == 0 || cyclic == 0 || searched == 0 || searched == len(items) {
		t.Fatalf("%d of %d items filtered, %d cyclic, %d searched: the fixture misses a path", filtered, len(items), cyclic, searched)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		sets, counts := MatchedEdgesAll(items, sn), CountAll(items, sn)
		if len(sets) != len(items) || len(counts) != len(items) {
			t.Fatalf("GOMAXPROCS %d: %d sets and %d counts for %d items", procs, len(sets), len(counts), len(items))
		}
		matched := 0
		for i, it := range items {
			want := MatchedEdges(it.Q, sn, it.Opts)
			if got := sets[i]; !slices.Equal(got.Triples(), want.Triples()) {
				t.Errorf("GOMAXPROCS %d, item %d: MatchedEdgesAll has %d edges, MatchedEdges %d", procs, i, got.Len(), want.Len())
			}
			if want := Count(it.Q, sn, it.Opts); counts[i] != want {
				t.Errorf("GOMAXPROCS %d, item %d: CountAll = %d, Count %d", procs, i, counts[i], want)
			}
			if counts[i] > 0 {
				matched++
			}
		}
		if matched < len(items)/4 {
			t.Fatalf("%d of %d items match: the fixture compares empty results mostly", matched, len(items))
		}
		t.Logf("GOMAXPROCS %d: %d of %d items filtered, %d cyclic, %d searched, %d match", procs, filtered, len(items), cyclic, searched, matched)
	}
	if len(MatchedEdgesAll(nil, sn)) != 0 || len(CountAll(nil, sn)) != 0 {
		t.Error("an empty batch has results")
	}
}
