package cluster

// Streaming site RPC and the pipelined control-site join. Instead of the
// materialize-then-ship round trip of Eval, EvalStream lets a site push
// binding batches to the control site as the local matcher projects them
// (match.FindBindings), and JoinStream consumes such batch streams with a
// symmetric (pipelined) hash join — symJoiner below: whichever input is
// ready first builds its hash table incrementally while probing the other
// side's table, so join work overlaps with subquery evaluation and
// shipping. Query latency becomes the longest chain through the
// pipeline rather than the sum of barrier-separated phases.

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
// reference, so the sink may reorder, overwrite or retain it. Fragments
// evaluate in parallel, so the sink must be safe for concurrent use.
// Returning an error stops the stream.
type BatchSink func(*match.Bindings) error

// EvalStream evaluates a subquery at a site like Eval, but ships binding
// batches of up to batchSize rows as soon as they are produced instead of
// materializing the full result first. Each batch pays one response
// message of simulated network cost. Batches are deduplicated within
// themselves only; cross-batch duplicates (overlapping fragments) are the
// consumer's concern, exactly as cross-site duplicates already were.
// Fragments evaluate concurrently, bounded by req.Parallelism (and the
// site's worker pool); the remaining budget drives the matcher's morsel
// workers inside each fragment.
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

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	fanout, perFragment := req.split(len(graphs))
	gate := make(chan struct{}, fanout)
	for _, g := range graphs {
		wg.Add(1)
		go func(g *rdf.Graph) {
			defer wg.Done()
			select {
			case gate <- struct{}{}: // respect the parallelism budget
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
			defer func() { <-gate }()
			select {
			case s.sem <- struct{}{}: // acquire a site worker
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
			defer func() { <-s.sem }()
			match.FindBindings(req.Query, req.View.Snap(g), match.Options{VertexFilter: req.Filter, Parallelism: perFragment, Deterministic: req.Deterministic}, batchSize, func(b *match.Bindings) bool {
				if err := ctx.Err(); err != nil {
					fail(err)
					return false
				}
				b.Dedup()
				respBytes := len(b.Rows) * 4
				c.Net.Messages.Add(1)
				c.Net.Bytes.Add(int64(respBytes))
				if err := c.receiveResponse(ctx, respBytes); err != nil {
					fail(err)
					return false
				}
				if err := sink(b); err != nil {
					fail(err)
					return false
				}
				return true
			})
		}(g)
	}
	wg.Wait()
	return firstErr
}

// symJoiner is the symmetric (pipelined) hash-join core: each arriving
// row is copied into its side's table and probed against the other side's
// rows seen so far, so every matching pair is produced exactly once, as
// soon as its later row arrives.
type symJoiner struct {
	j           *joinGeom
	left, right *joinTable
	hits        []chain // per row of the batch being probed; reused
}

func newSymJoiner(j *joinGeom) *symJoiner {
	return &symJoiner{j: j, left: newJoinTable(j.lw, j.lkey), right: newJoinTable(j.rw, j.rkey)}
}

// probe adds a batch to its side (left names it) and returns the batch's
// merged matches against the other side's rows seen so far, nil when there
// are none. The first pass stores the rows and counts the matches, so the
// output is allocated once, exactly.
func (s *symJoiner) probe(b *match.Bindings, left bool) *match.Bindings {
	own, other := s.right, s.left
	if left {
		own, other = other, own
	}
	n := b.Len()
	if cap(s.hits) < n {
		s.hits = make([]chain, 0, n)
	}
	s.hits = s.hits[:0]
	total := 0
	for i := 0; i < n; i++ {
		row := b.Rows[i*own.w : (i+1)*own.w]
		own.add(row)
		c := other.lookup(row, own.cols)
		s.hits = append(s.hits, c)
		total += int(c.n)
	}
	if total == 0 {
		return nil
	}
	width := s.j.width
	found := make([]rdf.ID, total*width)
	at := 0
	for i, c := range s.hits {
		row := b.Rows[i*own.w : (i+1)*own.w]
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
	return match.NewBindings(s.j.outVars, found, total)
}

// JoinStream runs a symmetric (pipelined) hash join between two batch
// streams and closes out when done. Both inputs build a hash table
// incrementally: each arriving row is inserted into its side's table and
// probed against the other side's rows seen so far, so every matching
// pair is emitted exactly once, as soon as its later row arrives — a
// batch's rows in their order, each with its matches in the order the
// other side received them, so a right stream consumed whole before the
// first left batch yields exactly HashJoin's row sequence. With no shared
// variables it degrades to a streamed Cartesian product. Output columns
// follow JoinVars(leftVars, rightVars). Cancelling ctx stops the join
// promptly; the inputs are then left undrained (producers must also watch
// ctx).
func JoinStream(ctx context.Context, leftVars, rightVars []string, left, right <-chan *match.Bindings, out chan<- *match.Bindings) {
	defer close(out)
	s := newSymJoiner(newJoinGeom(leftVars, rightVars))
	for left != nil || right != nil {
		var found *match.Bindings
		select {
		case b, ok := <-left:
			if !ok {
				left = nil
				continue
			}
			found = s.probe(b, true)
		case b, ok := <-right:
			if !ok {
				right = nil
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
			return
		}
	}
}
