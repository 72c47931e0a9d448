package cluster

// Streaming site RPC and the pipelined control-site join. Instead of the
// materialize-then-ship round trip of Eval, EvalStream lets a site push
// binding batches to the control site as the local matcher projects them
// (match.FindBindings), and JoinStream consumes such batch streams with a
// symmetric (pipelined) hash join — symJoiner below: whichever input is
// ready first builds its hash table incrementally while probing the other
// side's table, so join work overlaps with subquery evaluation and
// shipping. Query latency becomes the longest chain through the
// pipeline rather than the sum of barrier-separated phases. A side's
// table indexes its batches' rows where they arrived, without copying
// them — a delivered batch belongs to its receiver (BatchSink) — and only
// while the other input is open; after that the side's batches are
// probed and let go.

import (
	"context"
	"fmt"

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
// overwrite or retain it, and its last reader calls Release. JoinStream
// reads every batch it keeps until the join ends; exec.consume releases
// each batch once it is copied into the answer. A subquery's sites stream
// concurrently, so the sink must be safe for concurrent use. Returning an
// error stops the stream.
type BatchSink func(*match.Bindings) error

// EvalStream evaluates a subquery at a site like Eval, but ships binding
// batches of up to batchSize rows as soon as they are produced instead of
// materializing the full result first. Each batch pays one response
// message of simulated network cost. Batches are deduplicated within
// themselves only; cross-batch duplicates (a match both the site's graph
// and the cold graph hold) are the consumer's concern, exactly as
// cross-site duplicates already were. The site's graphs evaluate one
// after the other, each with the whole req.Parallelism budget of morsel
// workers.
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

	opts := match.Options{Parallelism: req.Parallelism, Keep: req.Keep}
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

// JoinStream runs a symmetric (pipelined) hash join between two batch
// streams and closes out when done. Each arriving batch is probed against
// the other side's rows seen so far and, while the other input is still
// open, kept in its own side's table where it arrived — the join owns the
// batches it receives (see BatchSink) and reads them until it returns.
// Once an input closes, the other side's table is dropped and that side's
// batches are only probed: a symmetric hash join keeps an input only
// while the other can still deliver rows. An input batch is released with
// its table, or at once when none keeps it: nobody may read one after
// sending it; the output batches are the receiver's. Every matching pair
// is emitted exactly once, as soon as its later row arrives — a batch's
// rows in their order, each with its matches in the order the other side
// received them, so a right stream consumed whole before the first left
// batch yields exactly HashJoin's row sequence. With no shared variables it
// degrades to a streamed Cartesian product. Output columns follow
// JoinVars(leftVars, rightVars). Cancelling ctx stops the join promptly;
// the inputs are then left undrained (producers must also watch ctx).
func JoinStream(ctx context.Context, leftVars, rightVars []string, left, right <-chan *match.Bindings, out chan<- *match.Bindings) {
	defer close(out)
	s := newSymJoiner(newJoinGeom(leftVars, rightVars))
	defer func() {
		s.left.free()
		s.right.free()
	}()
	for left != nil || right != nil {
		var found *match.Bindings
		select {
		case b, ok := <-left:
			if !ok {
				left = nil
				s.close(true)
				continue
			}
			found = s.probe(b, true)
		case b, ok := <-right:
			if !ok {
				right = nil
				s.close(false)
				continue
			}
			found = s.probe(b, false)
		case <-ctx.Done():
			return
		}
		if found == nil {
			continue
		}
		select {
		case out <- found:
		case <-ctx.Done():
			found.Release()
			return
		}
	}
}
