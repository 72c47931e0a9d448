package match

import (
	"math/bits"
	"sync"

	"rdffrag/internal/rdf"
)

// The free list of the row arrays that die inside a request, for the next
// query to take. It keeps power-of-two classes, freeCap bytes in all, so it
// never holds on to the largest answers (an uncapped sync.Pool raised peak
// RSS by 12 % on the analytic workload).
const (
	minClass   = 2       // 4 IDs
	maxClass   = 16      // 65 536 IDs, 256 KiB
	freeCap    = 1 << 20 // bytes
	classSlots = 256     // arrays a class keeps: the list is fixed, so handing back never allocates
)

var rowFree struct {
	mu    sync.Mutex
	bytes int
	class [maxClass - minClass + 1]struct {
		n int
		a [classSlots][]rdf.ID
	}
}

// TakeRows returns an empty array with room for n IDs, of n's class (from
// the list if it holds one) or past the largest class of n, never kept.
// The taker hands it back whole, or drops it.
func TakeRows(n int) []rdf.ID {
	c := max(bits.Len(uint(n-1)), minClass)
	if n <= 0 || c > maxClass {
		return make([]rdf.ID, 0, max(n, 0))
	}
	rowFree.mu.Lock()
	defer rowFree.mu.Unlock()
	s := &rowFree.class[c-minClass]
	if s.n == 0 {
		return make([]rdf.ID, 0, 1<<c)
	}
	a := s.a[s.n-1]
	s.a[s.n-1], s.n = nil, s.n-1
	rowFree.bytes -= 4 * cap(a)
	return a[:0]
}

// GiveRows hands back a whole array TakeRows returned, nobody's from then
// on (under the race detector, poisoned first). It never allocates.
func GiveRows(a []rdf.ID) {
	a = a[:cap(a)]
	if poison {
		for i := range a {
			a[i] = poisonID
		}
	}
	c := bits.Len(uint(len(a))) - 1
	if c < minClass || c > maxClass || len(a) != 1<<c {
		return
	}
	rowFree.mu.Lock()
	defer rowFree.mu.Unlock()
	if s := &rowFree.class[c-minClass]; s.n < classSlots && rowFree.bytes+4*len(a) <= freeCap {
		s.a[s.n], s.n = a, s.n+1
		rowFree.bytes += 4 * len(a)
	}
}

// GrowRows returns a, a TakeRows array or nil, with room for n more IDs:
// if it has none, a copy in a larger array of the list, a handed back.
func GrowRows(a []rdf.ID, n int) []rdf.ID {
	if len(a)+n <= cap(a) {
		return a
	}
	defer GiveRows(a) // once copied
	return append(TakeRows(max(len(a)+n, 2*cap(a))), a...)
}

// poisonID is an ID no dictionary holds (rdf.NoID is an unbound cell).
const poisonID = rdf.NoID - 1

// Recyclable is NewBindings for rows TakeRows returned.
func Recyclable(vars []string, rows []rdf.ID, n int) *Bindings {
	b := NewBindings(vars, rows, n)
	b.taken = true
	return b
}

// batchHeaders keeps the headers of the batches FindBindings hands out:
// a batch's header dies with it, so the next batch can have it.
var batchHeaders = sync.Pool{New: func() any { return new(Bindings) }}

// Release is called by b's last reader: a Recyclable table hands its array
// back and is left empty; any other is left as it is. A batch of
// FindBindings' goes back whole, its header too: nobody may read b after,
// nor release it again, which could free another batch that took the
// header since.
func (b *Bindings) Release() {
	if b.taken {
		GiveRows(b.Rows)
		b.Rows, b.taken = nil, false
	}
	if b.pooled {
		*b = Bindings{}
		batchHeaders.Put(b)
	}
}
