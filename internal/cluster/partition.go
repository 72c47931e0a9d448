package cluster

// Partitioned parallel control-site join. The symmetric hash join
// (symJoiner below) is one goroutine per join stage, so join-heavy queries
// bottleneck at the control site exactly where the paper's
// partial-evaluation-and-assembly design concentrates work. The operators
// here remove that ceiling the way the morsel fan-out (internal/match)
// scaled the sites: each incoming row's join key hashes into one of P
// disjoint partitions, one shared-nothing worker per partition runs the
// symmetric join with its own pair of tables (no locks on the probe/build
// path), and partition outputs merge either
//
//   - deterministically: every partition buffers its inputs, joins them
//     probing left rows in global arrival order, and the per-partition
//     outputs — sorted by (left index, right index), with left indexes
//     disjoint across partitions — k-way merge into exactly the row order
//     the sequential HashJoin produces, byte for byte; or
//   - streaming: workers emit merged rows into the shared output channel
//     as each pair's later row arrives (the channel is the serialized
//     sink), mirroring match.Options.Deterministic's streaming mode.
//
// A binding table is one flat array, so routing a row means copying it:
// a router appends each row of a batch to its partition's block, and the
// block, not the batch, travels on.
//
// Join-key semantics under partitioning: two rows can only match when
// every shared column compares equal, so rows agreeing on all shared
// columns hash to the same partition and no match is lost. A Cartesian
// join (no shared variables) has nothing to hash by — every pair matches
// — so it always takes the single-partition path.

import (
	"context"
	"sync"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// MaxJoinPartitions caps the partition fan-out of one join stage; beyond
// it per-partition hash tables are too sparse to pay for their workers.
// Exported so budget planners (exec) can clamp before reserving workers.
const MaxJoinPartitions = 64

// JoinOptions tunes the control-site join operators.
type JoinOptions struct {
	// Partitions is the number of shared-nothing join partitions run in
	// parallel; 0 or 1 selects the single-partition (sequential) path.
	// Cartesian joins ignore it (nothing to partition by).
	Partitions int
	// Deterministic makes JoinStreamOpts emit rows in exactly the
	// sequential HashJoin order regardless of partition count or input
	// interleaving, at the cost of materializing before emitting —
	// mirroring match.Options.Deterministic. When false, workers stream
	// merged rows as they are found; the row multiset is identical but
	// the order is not reproducible.
	Deterministic bool
}

// Partitionable reports whether a join of two streams with these
// variable sets can fan out over multiple partitions — the same
// shared-variable rule JoinOptions applies internally. Budget planners
// (exec) use it to avoid charging worker budget to stages that will run
// single-partition regardless.
func Partitionable(leftVars, rightVars []string) bool {
	shared, _, _ := alignVars(leftVars, rightVars)
	return len(shared) > 0
}

// partitions resolves the effective partition count for a join with the
// given number of shared columns.
func (o JoinOptions) partitions(shared int) int {
	p := o.Partitions
	if p <= 1 || shared == 0 {
		return 1
	}
	if p > MaxJoinPartitions {
		p = MaxJoinPartitions
	}
	return p
}

// joinGeom is one join's resolved column geometry, shared read-only by
// routers, partition workers and the merger.
type joinGeom struct {
	lkey, rkey []int // the shared variables' columns in left and right rows
	rightOnly  []int
	lw, rw     int // input row widths
	width      int // output row width
	outVars    []string
}

func newJoinGeom(leftVars, rightVars []string) *joinGeom {
	lkey, rkey, rightOnly := alignVars(leftVars, rightVars)
	return &joinGeom{
		lkey:      lkey,
		rkey:      rkey,
		rightOnly: rightOnly,
		lw:        len(leftVars),
		rw:        len(rightVars),
		width:     len(leftVars) + len(rightOnly),
		outVars:   append(append([]string(nil), leftVars...), names(rightVars, rightOnly)...),
	}
}

// side returns the row width and key columns of one input.
func (j *joinGeom) side(left bool) (w int, key []int) {
	if left {
		return j.lw, j.lkey
	}
	return j.rw, j.rkey
}

// partitionFor routes one row: its key's hash picks the partition, so
// matching rows from either side land in the same one. It never allocates
// — the per-routed-row cost of the partitioned join.
func partitionFor(row []rdf.ID, key []int, p int) int {
	h := hashKey(row, key)
	return int((h ^ h>>32) % uint64(p))
}

// partIn is one partition's buffered input side: the n routed rows, back
// to back, plus each row's global arrival index (the deterministic merge
// order; nil means the identity).
type partIn struct {
	rows []rdf.ID
	n    int
	idx  []int32
}

// partOut is one partition's deterministic join output: n merged rows
// sorted by (left arrival index, right arrival index), plus the left
// index per row when a cross-partition merge needs it.
type partOut struct {
	rows []rdf.ID
	n    int
	li   []int32
}

// joinOrdered is the ordered batch-join core shared by HashJoin and the
// deterministic stream merge: index the right rows, probe the left rows in
// order, emit matches in (left index, right index) order. l.idx maps local
// left rows to their global arrival indexes; needLi records the global
// left index per output row for mergeOrdered. With no shared columns every
// pair matches: the nested-loop Cartesian product in the same order.
func joinOrdered(j *joinGeom, l, r partIn, needLi bool) partOut {
	if l.n == 0 || r.n == 0 {
		return partOut{}
	}
	tab := indexRows(r.rows, j.rw, r.n, j.rkey)
	// Counting pass: probing twice is far cheaper than growing the output
	// through repeated reallocation.
	total := 0
	for i := 0; i < l.n; i++ {
		total += int(tab.lookup(l.rows[i*j.lw:(i+1)*j.lw], j.lkey).n)
	}
	if total == 0 {
		return partOut{}
	}
	res := partOut{rows: make([]rdf.ID, total*j.width), n: total}
	if needLi {
		res.li = make([]int32, 0, total)
	}
	at := 0
	for i := 0; i < l.n; i++ {
		lr := l.rows[i*j.lw : (i+1)*j.lw]
		c := tab.lookup(lr, j.lkey)
		// The chain runs from its newest row back: fill this left row's
		// outputs from the last to the first.
		for ri, k := c.newest, int(c.n); k > 0; ri, k = tab.older(ri), k-1 {
			mergeRow(res.rows[(at+k-1)*j.width:(at+k)*j.width], j, lr, tab.at(ri))
		}
		at += int(c.n)
		if needLi {
			li := int32(i)
			if l.idx != nil {
				li = l.idx[i]
			}
			for k := c.n; k > 0; k-- {
				res.li = append(res.li, li)
			}
		}
	}
	return res
}

// mergeOrdered k-way merges per-partition ordered outputs into the global
// (left index, right index) order. All outputs of one left row live in
// exactly one partition (one row, one key, one partition) and each
// partition's list is sorted by left index, so repeatedly taking the run
// of smallest head left index reproduces the sequential order.
func mergeOrdered(results []partOut, width int) partOut {
	var out partOut
	for _, r := range results {
		out.n += r.n
	}
	out.rows = make([]rdf.ID, 0, out.n*width)
	cur := make([]int, len(results))
	for done := 0; done < out.n; {
		best := -1
		var bestLi int32
		for i := range results {
			c := cur[i]
			if c < results[i].n && (best < 0 || results[i].li[c] < bestLi) {
				best, bestLi = i, results[i].li[c]
			}
		}
		r := &results[best]
		c := cur[best]
		for c < r.n && r.li[c] == bestLi {
			c++
		}
		out.rows = append(out.rows, r.rows[cur[best]*width:c*width]...)
		done += c - cur[best]
		cur[best] = c
	}
	return out
}

// HashJoinOpts is HashJoin with a configurable partition fan-out: rows
// partition by join key, the partitions join in parallel (shared-nothing),
// and the ordered merge makes the output byte-identical to HashJoin at
// every partition count.
func HashJoinOpts(left, right *match.Bindings, opts JoinOptions) *match.Bindings {
	j := newJoinGeom(left.Vars, right.Vars)
	l, r := partIn{rows: left.Rows, n: left.Len()}, partIn{rows: right.Rows, n: right.Len()}
	var res partOut
	if p := opts.partitions(len(j.lkey)); p == 1 {
		res = joinOrdered(j, l, r, false)
	} else {
		lparts := make([]partIn, p)
		rparts := make([]partIn, p)
		routeRows(j, l, true, 0, lparts)
		routeRows(j, r, false, 0, rparts)
		res = mergeOrdered(joinPartitions(j, lparts, rparts), j.width)
	}
	return match.NewBindings(j.outVars, res.rows, res.n)
}

// routeRows copies one side's rows into the partitions their join keys
// pick, recording global arrival indexes, which start at base, for the
// ordered merge.
func routeRows(j *joinGeom, in partIn, left bool, base int32, parts []partIn) {
	w, key := j.side(left)
	for i := 0; i < in.n; i++ {
		row := in.rows[i*w : (i+1)*w]
		pt := &parts[partitionFor(row, key, len(parts))]
		pt.rows = append(pt.rows, row...)
		pt.idx = append(pt.idx, base+int32(i))
		pt.n++
	}
}

// joinPartitions joins each partition pair in parallel, one shared-nothing
// worker per partition.
func joinPartitions(j *joinGeom, lparts, rparts []partIn) []partOut {
	results := make([]partOut, len(lparts))
	var wg sync.WaitGroup
	for i := range results {
		if lparts[i].n == 0 || rparts[i].n == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = joinOrdered(j, lparts[i], rparts[i], true)
		}(i)
	}
	wg.Wait()
	return results
}

// JoinStreamOpts runs the control-site join between two batch streams
// with a configurable partition fan-out and merge mode, closing out when
// done. See JoinStream for the single-partition streaming semantics and
// the package comment above for partitioning. Cancelling ctx stops the
// routers and every partition worker promptly (the shared kill switch);
// the inputs are then left undrained (producers must also watch ctx).
func JoinStreamOpts(ctx context.Context, leftVars, rightVars []string, left, right <-chan *match.Bindings, out chan<- *match.Bindings, opts JoinOptions) {
	defer close(out)
	j := newJoinGeom(leftVars, rightVars)
	p := opts.partitions(len(j.lkey))
	if opts.Deterministic {
		joinStreamDet(ctx, j, p, left, right, out)
		return
	}
	if p == 1 {
		// Single-partition streaming — the default under server load and
		// every legacy JoinStream call — joins inline off the input
		// channels: no routers, no partition channels, no extra hop.
		runSymLoop(ctx, j, left, right, out, func(b *match.Bindings) ([]rdf.ID, int) { return b.Rows, b.Len() })
		return
	}
	lch := makePartChans(p)
	rch := makePartChans(p)
	go routeStream(ctx, j, left, lch, true)
	go routeStream(ctx, j, right, rch, false)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One partition's streaming join: the symmetric core over the
			// routers' per-partition blocks, with worker-private tables.
			runSymLoop(ctx, j, lch[i], rch[i], out, func(b partIn) ([]rdf.ID, int) { return b.rows, b.n })
		}(i)
	}
	wg.Wait()
}

// partChanBuf is the per-partition channel depth: enough to decouple the
// router from a worker mid-probe without hoarding batches.
const partChanBuf = 2

func makePartChans(p int) []chan partIn {
	chs := make([]chan partIn, p)
	for i := range chs {
		chs[i] = make(chan partIn, partChanBuf)
	}
	return chs
}

// routeStream reads one input side and scatters each batch's rows to the
// per-partition channels (always ≥2 of them; P=1 joins inline without a
// router) by join key, preserving per-partition arrival order. It closes
// the partition channels when the input closes or ctx is cancelled.
func routeStream(ctx context.Context, j *joinGeom, in <-chan *match.Bindings, chs []chan partIn, left bool) {
	defer func() {
		for _, ch := range chs {
			close(ch)
		}
	}()
	w, key := j.side(left)
	pending := make([]partIn, len(chs))
	for {
		var b *match.Bindings
		select {
		case bb, ok := <-in:
			if !ok {
				return
			}
			b = bb
		case <-ctx.Done():
			return
		}
		for i, n := 0, b.Len(); i < n; i++ {
			row := b.Rows[i*w : (i+1)*w]
			pt := &pending[partitionFor(row, key, len(chs))]
			pt.rows = append(pt.rows, row...)
			pt.n++
		}
		for i, part := range pending {
			if part.n == 0 {
				continue
			}
			select {
			case chs[i] <- part:
			case <-ctx.Done():
				return
			}
			pending[i] = partIn{}
		}
	}
}

// symJoiner is the symmetric (pipelined) hash-join core shared by the
// single-partition path and the per-partition workers: each arriving row
// is copied into its side's table and probed against the other side's
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

// probe adds a batch of n rows to its side (left names it) and returns
// their merged matches against the other side's rows seen so far, back to
// back, and how many there are. The first pass stores the rows and counts
// the matches, so the output is allocated once, exactly.
func (s *symJoiner) probe(batch []rdf.ID, n int, left bool) ([]rdf.ID, int) {
	own, other := s.right, s.left
	if left {
		own, other = other, own
	}
	if cap(s.hits) < n {
		s.hits = make([]chain, 0, n)
	}
	s.hits = s.hits[:0]
	total := 0
	for i := 0; i < n; i++ {
		row := batch[i*own.w : (i+1)*own.w]
		own.add(row)
		c := other.lookup(row, own.cols)
		s.hits = append(s.hits, c)
		total += int(c.n)
	}
	if total == 0 {
		return nil, 0
	}
	width := s.j.width
	found := make([]rdf.ID, total*width)
	at := 0
	for i, c := range s.hits {
		row := batch[i*own.w : (i+1)*own.w]
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
	return found, total
}

// runSymLoop drives one symJoiner over a pair of batch streams until
// both close, ctx is done, or an emit fails; rows extracts a batch's
// rows and their number. Both streaming paths share this loop, so the two
// cannot diverge. The out channel may be shared by several workers — the
// send is the serialized sink.
func runSymLoop[B any](ctx context.Context, j *joinGeom, left, right <-chan B, out chan<- *match.Bindings, rows func(B) ([]rdf.ID, int)) {
	s := newSymJoiner(j)
	for left != nil || right != nil {
		var found []rdf.ID
		var n int
		select {
		case b, ok := <-left:
			if !ok {
				left = nil
				continue
			}
			batch, k := rows(b)
			found, n = s.probe(batch, k, true)
		case b, ok := <-right:
			if !ok {
				right = nil
				continue
			}
			batch, k := rows(b)
			found, n = s.probe(batch, k, false)
		case <-ctx.Done():
			return
		}
		if n == 0 {
			continue
		}
		select {
		case out <- match.NewBindings(j.outVars, found, n):
		case <-ctx.Done():
			return
		}
	}
}

// joinStreamDet is the deterministic mode: both sides buffer into
// per-partition inputs while streaming (route work still overlaps the
// producers), the partitions join in parallel once the inputs close, and
// the ordered merge emits exactly the sequential HashJoin row sequence in
// DefaultBatchSize chunks.
func joinStreamDet(ctx context.Context, j *joinGeom, p int, left, right <-chan *match.Bindings, out chan<- *match.Bindings) {
	lparts := make([]partIn, p)
	rparts := make([]partIn, p)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		routeBuffer(ctx, j, left, true, lparts)
	}()
	go func() {
		defer wg.Done()
		routeBuffer(ctx, j, right, false, rparts)
	}()
	wg.Wait()
	if ctx.Err() != nil {
		return
	}
	var res partOut
	if p == 1 {
		res = joinOrdered(j, lparts[0], rparts[0], false)
	} else {
		res = mergeOrdered(joinPartitions(j, lparts, rparts), j.width)
	}
	for i := 0; i < res.n; i += DefaultBatchSize {
		end := min(i+DefaultBatchSize, res.n)
		select {
		case out <- match.NewBindings(j.outVars, res.rows[i*j.width:end*j.width:end*j.width], end-i):
		case <-ctx.Done():
			return
		}
	}
}

// routeBuffer is routeStream's buffering twin for the deterministic mode:
// rows scatter into per-partition input buffers with their global arrival
// index instead of onto channels.
func routeBuffer(ctx context.Context, j *joinGeom, in <-chan *match.Bindings, left bool, parts []partIn) {
	var n int32
	for {
		select {
		case b, ok := <-in:
			if !ok {
				return
			}
			routeRows(j, partIn{rows: b.Rows, n: b.Len()}, left, n, parts)
			n += int32(b.Len())
		case <-ctx.Done():
			return
		}
	}
}
