package serve

import (
	"container/list"
	"encoding/binary"
	"sync"

	"rdffrag/internal/decompose"
	"rdffrag/internal/sparql"
)

// appendShapeKey appends the cache key of q's shape to dst: the edge
// list over parse-order vertex numbers with its predicate IDs, and which
// vertices are constants — exactly what a decompose.Shape is a function
// of. Constant values and variable names are left out, so every instance
// of a query template shares an entry; a predicate variable is written as
// the number of the first edge that carries it. Projection, ORDER BY
// and LIMIT are excluded too: they play no part in planning. A textual
// reordering of the same pattern numbers its vertices differently and
// gets an entry of its own, which costs one more miss and nothing on a
// hit — merging them would put a graph canonicalisation on every lookup.
// With dst backed by a stack array the key costs no allocation.
func appendShapeKey(dst []byte, q *sparql.Graph) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(q.Verts)))
	for _, v := range q.Verts {
		if v.IsVar() {
			dst = append(dst, 'v')
		} else {
			dst = append(dst, 'c')
		}
	}
	for i, e := range q.Edges {
		dst = binary.AppendUvarint(dst, uint64(e.From))
		dst = binary.AppendUvarint(dst, uint64(e.To))
		if !e.IsPredVar() {
			dst = append(dst, 'p')
			dst = binary.AppendUvarint(dst, uint64(e.Pred))
			continue
		}
		first := i
		for j, w := range q.Edges[:i] {
			if w.PredVar == e.PredVar {
				first = j
				break
			}
		}
		dst = append(dst, '?')
		dst = binary.AppendUvarint(dst, uint64(first))
	}
	return dst
}

// planCache is a small mutex-guarded LRU of query shapes. Entries are
// immutable (a decompose.Shape is read-only once built), so hits can be
// shared across concurrent workers without copying.
type planCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	idx map[string]*list.Element
}

type cacheEntry struct {
	key   string
	shape *decompose.Shape
}

// newPlanCache returns nil when capacity < 0 (caching disabled).
func newPlanCache(capacity int) *planCache {
	if capacity < 0 {
		return nil
	}
	return &planCache{cap: capacity, ll: list.New(), idx: make(map[string]*list.Element)}
}

// get looks a key up without copying it.
func (c *planCache) get(key []byte) (*decompose.Shape, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[string(key)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).shape, true
}

func (c *planCache) put(key string, shape *decompose.Shape) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).shape = shape
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, shape: shape})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.idx, last.Value.(*cacheEntry).key)
	}
}
