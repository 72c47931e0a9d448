package serve

import (
	"container/list"
	"sync"

	"rdffrag/internal/decompose"
)

// planCache is a small mutex-guarded LRU of query shapes. Entries are
// immutable (a decompose.Shape is read-only once built), so hits can be
// shared across concurrent queries without copying.
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
