package cluster

// Streaming site RPC and the pipelined control-site join. Instead of the
// materialize-then-ship round trip of Eval, EvalStream lets a site push
// binding batches to the control site as the local matcher projects them
// (match.FindBindings), and a Joiner takes such batch streams into a
// symmetric hash join — symJoiner below: whichever input delivers first
// builds its table while probing the other side's. The join has no
// goroutine of its own: a producer's push runs the probe and hands what
// it found down the chain of stages before it returns, so join work
// overlaps with subquery evaluation and shipping. A side's table indexes
// its batches' rows where they arrived, without copying them — a
// delivered batch belongs to its receiver (BatchSink) — and only while
// the other input is open; after that the side's batches are probed and
// let go.

import (
	"context"
	"fmt"
	"sync"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// DefaultBatchSize is the number of binding rows shipped per streamed
// batch when the caller does not choose one. Large enough to amortize the
// per-message network cost, small enough that the first batch arrives
// quickly.
const DefaultBatchSize = 256

// BatchSink receives one shipped batch of bindings. The batch and its Rows
// array belong to the receiver from then on: the sender keeps no
// reference and never writes to them again, so the sink may reorder,
// overwrite or retain it, and its last reader calls Release. A Joiner
// reads every batch it keeps until both its inputs have closed; the
// engine's answer releases each batch once it is copied in. A subquery's
// sites stream concurrently, so the sink must be safe for concurrent use.
// Returning an error stops the stream.
type BatchSink func(*match.Bindings) error

// EvalStream evaluates a subquery at a site like Eval, but ships binding
// batches of up to batchSize rows as soon as they are produced instead of
// materializing the full result first. Each batch pays one response
// message of simulated network cost. Batches are deduplicated within
// themselves only; cross-batch duplicates (a match both the site's graph
// and the cold graph hold) are the consumer's concern, exactly as
// cross-site duplicates already were. The site's graphs evaluate one
// after the other, each by one sequential search on the caller's
// goroutine.
func (c *Cluster) EvalStream(ctx context.Context, req EvalRequest, batchSize int, sink BatchSink) error {
	if req.SiteID < 0 || req.SiteID >= len(c.Sites) {
		return fmt.Errorf("cluster: site %d out of range", req.SiteID)
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	s := c.Sites[req.SiteID]
	reqBytes := estimateQueryBytes(req.Query)
	c.Net.Messages.Add(1)
	c.Net.Bytes.Add(int64(reqBytes))
	if err := c.sendRequest(ctx, reqBytes); err != nil {
		return err
	}

	graphs, err := s.resolve(req)
	if err != nil {
		return err
	}

	opts := match.Options{Keep: req.Keep, Vars: req.Vars}
	return s.each(ctx, graphs, func(g *rdf.Graph) (err error) {
		match.FindBindings(req.Query, req.View.Snap(g), opts, batchSize, func(b *match.Bindings) bool {
			if err = ctx.Err(); err != nil {
				return false
			}
			b.Dedup()
			respBytes := len(b.Rows) * 4
			c.Net.Messages.Add(1)
			c.Net.Bytes.Add(int64(respBytes))
			if err = c.receiveResponse(ctx, respBytes); err == nil {
				err = sink(b)
			}
			return err == nil
		})
		return err
	})
}

// symJoiner is the symmetric (pipelined) hash-join core: each arriving
// batch is probed against the other side's rows seen so far and, while
// the other side is still open, adopted by its own side's table, so every
// matching pair is produced exactly once, as soon as its later row
// arrives.
type symJoiner struct {
	j           *joinGeom
	left, right *joinTable // nil once dropped by close
	hits        []chain    // per row of the batch being probed; reused
}

func newSymJoiner(j *joinGeom) *symJoiner {
	return &symJoiner{j: j, left: newJoinTable(j.lw, j.lkey, 0), right: newJoinTable(j.rw, j.rkey, 0)}
}

// probe takes a batch of the side left names and returns its merged
// matches against the other side's rows seen so far, nil when there are
// none; its own side's table, unless dropped, adopts the batch, else it is
// released. The first pass counts the matches, so the output is taken once,
// at its size.
func (s *symJoiner) probe(b *match.Bindings, left bool) *match.Bindings {
	own, other, w, cols := s.right, s.left, s.j.rw, s.j.rkey
	if left {
		own, other, w, cols = s.left, s.right, s.j.lw, s.j.lkey
	}
	n := b.Len()
	if own != nil {
		own.adopt(b.Rows, n)
		own.owned = append(own.owned, b)
	} else {
		defer b.Release()
	}
	if cap(s.hits) < n {
		s.hits = make([]chain, 0, n)
	}
	s.hits = s.hits[:0]
	total := 0
	for i := 0; i < n; i++ {
		c := other.lookup(b.Rows[i*w:(i+1)*w], cols)
		s.hits = append(s.hits, c)
		total += int(c.n)
	}
	if total == 0 {
		return nil
	}
	width := s.j.width
	found := match.TakeRows(total * width)[:total*width]
	at := 0
	for i, c := range s.hits {
		row := b.Rows[i*w : (i+1)*w]
		// A chain runs from its newest row back; the output lists a
		// row's matches oldest first.
		for o, k := c.newest, int(c.n); k > 0; o, k = other.older(o), k-1 {
			lr, rr := row, other.at(o)
			if !left {
				lr, rr = rr, lr
			}
			mergeRow(found[(at+k-1)*width:(at+k)*width], s.j, lr, rr)
		}
		at += int(c.n)
	}
	return match.Recyclable(s.j.outVars, found, total)
}

// close records that the side left names has ended: the other side's
// table, which only this side probed, is dropped and handed back, since
// none of its rows can match again.
func (s *symJoiner) close(left bool) {
	if left {
		s.right.free()
		s.right = nil
	} else {
		s.left.free()
		s.left = nil
	}
}

// Stage takes pushed batch streams: a Joiner, or whatever receives the
// output of a chain of them. Push hands over a batch of the input left
// names, which belongs to the stage from then on (see BatchSink), even
// when Push returns an error: that error tells the pusher to stop. Close
// records that the input left names has ended; no batch of it is pushed
// afterwards.
type Stage interface {
	Push(b *match.Bindings, left bool) error
	Close(left bool)
}

// Joiner is the pipelined (symmetric hash) join of two batch streams,
// driven by its producers: Push probes a batch against the other side's
// rows seen so far, keeps it in its own side's table while the other
// input is open — the batch is the joiner's from then on — and hands the
// rows it found to next's left input before it returns; Close drops the
// other side's table, which only the closed side probed, and once both
// inputs have closed closes next's left input. Every matching pair is
// found exactly once, as soon as its later row arrives, and in HashJoin's
// order when the right input is pushed whole first. Output columns follow
// JoinVars(leftVars, rightVars). Push and Close hand on to next under the
// joiner's mutex: in a chain of joiners the stage order is then the lock
// order, so nothing deadlocks, and no row reaches next after the close of
// its side.
type Joiner struct {
	mu   sync.Mutex
	s    *symJoiner
	next Stage
	open int // inputs not yet closed
}

// NewJoiner returns a joiner of a stream over leftVars with one over
// rightVars, which pushes what it joins into next's left input.
func NewJoiner(leftVars, rightVars []string, next Stage) *Joiner {
	return &Joiner{s: newSymJoiner(newJoinGeom(leftVars, rightVars)), next: next, open: 2}
}

// Push joins a batch of the input left names and hands the rows it found
// to next, returning next's error.
func (j *Joiner) Push(b *match.Bindings, left bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if found := j.s.probe(b, left); found != nil {
		return j.next.Push(found, true)
	}
	return nil
}

// Close records that the input left names has ended.
func (j *Joiner) Close(left bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.s.close(left)
	if j.open--; j.open == 0 {
		j.next.Close(true)
	}
}
