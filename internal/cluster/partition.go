package cluster

// Partitioned parallel control-site join. The symmetric hash join
// (symJoiner below) is one goroutine per join stage, so join-heavy queries
// bottleneck at the control site exactly where the paper's
// partial-evaluation-and-assembly design concentrates work. The operators
// here remove that ceiling the way the morsel fan-out (internal/match)
// scaled the sites: each incoming row's packed join key hashes into one of
// P disjoint partitions, one shared-nothing worker per partition runs the
// symmetric join with its own pair of hash tables and rowArena (no locks
// on the probe/build path), and partition outputs merge either
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
// Rows are only ever routed, never copied: a partition batch is a slice
// of the same row slices the producer shipped.
//
// Join-key semantics under partitioning: two rows can only match when
// every shared column compares equal, so rows agreeing on all shared
// columns hash to the same partition and no match is lost. A Cartesian
// join (no shared variables) has nothing to hash by — every pair matches
// — so it always takes the single-partition path. A ragged row too short
// to cover every shared column has no defined join key and matches
// nothing, in every mode and partition count (the sequential join
// formerly panicked on such rows).

import (
	"context"
	"math/bits"
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
	shared, _ := alignVars(leftVars, rightVars)
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
// routers, partition workers and the merger. lNeed/rNeed/maxRO are
// precomputed so the per-row ragged-row guards cost one integer compare,
// not a loop over the columns.
type joinGeom struct {
	shared    []colPair
	rightOnly []int
	lw        int // left row width (len(leftVars))
	width     int // output row width
	lNeed     int // min left row length covering every shared column
	rNeed     int // min right row length covering every shared column
	maxRO     int // max right-only column index (-1 when none)
	outVars   []string
}

func newJoinGeom(leftVars, rightVars []string) *joinGeom {
	shared, rightOnly := alignVars(leftVars, rightVars)
	j := &joinGeom{
		shared:    shared,
		rightOnly: rightOnly,
		lw:        len(leftVars),
		width:     len(leftVars) + len(rightOnly),
		maxRO:     -1,
		outVars:   append(append([]string(nil), leftVars...), names(rightVars, rightOnly)...),
	}
	for _, c := range shared {
		if c.l+1 > j.lNeed {
			j.lNeed = c.l + 1
		}
		if c.r+1 > j.rNeed {
			j.rNeed = c.r + 1
		}
	}
	for _, idx := range rightOnly {
		if idx > j.maxRO {
			j.maxRO = idx
		}
	}
	return j
}

// lKeyable/rKeyable report whether a row covers every shared column on
// its side — the precondition for building its join key.
func (j *joinGeom) lKeyable(row []rdf.ID) bool { return len(row) >= j.lNeed }
func (j *joinGeom) rKeyable(row []rdf.ID) bool { return len(row) >= j.rNeed }

func (j *joinGeom) keyableSide(row []rdf.ID, left bool) bool {
	if left {
		return j.lKeyable(row)
	}
	return j.rKeyable(row)
}

// FNV-1a parameters for partition routing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// partitionFor routes one keyable row: FNV-1a over its shared-column
// values, in shared-column order, so matching rows from either side and
// at any key width land in the same partition. It never allocates — the
// per-routed-row cost of the partitioned join (wide string-fallback keys
// included: the hash reads the columns directly, no key materialization).
func partitionFor(row []rdf.ID, cols []colPair, left bool, p int) int {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		i := c.r
		if left {
			i = c.l
		}
		h ^= uint64(row[i])
		h *= fnvPrime64
	}
	return int((h ^ h>>32) % uint64(p))
}

// partIn is one partition's buffered input side: the routed rows plus
// each row's global arrival index (the deterministic merge order).
type partIn struct {
	rows [][]rdf.ID
	idx  []int32
}

// partOut is one partition's deterministic join output: merged rows
// sorted by (left arrival index, right arrival index), plus the left
// index per row when a cross-partition merge needs it.
type partOut struct {
	rows [][]rdf.ID
	li   []int32
}

// joinOrdered is the ordered batch-join core shared by HashJoin and the
// deterministic stream merge: hash rrows, probe lrows in order, emit
// matches in (left index, right index) order. lidx maps local left rows
// to their global arrival indexes (nil means the identity); needLi
// records the global left index per output row for mergeOrdered. With no
// shared columns it degrades to the nested-loop Cartesian product in the
// same order. Rows missing a shared column are skipped (no defined key).
func joinOrdered(j *joinGeom, lrows [][]rdf.ID, lidx []int32, rrows [][]rdf.ID, needLi bool) partOut {
	var res partOut
	if len(lrows) == 0 || len(rrows) == 0 {
		return res
	}
	liOf := func(i int) int32 {
		if lidx != nil {
			return lidx[i]
		}
		return int32(i)
	}
	if len(j.shared) == 0 {
		total := len(lrows) * len(rrows)
		arena := presizedArena(total, j.width)
		res.rows = make([][]rdf.ID, 0, total)
		if needLi {
			res.li = make([]int32, 0, total)
		}
		for i, lr := range lrows {
			for _, rr := range rrows {
				res.rows = append(res.rows, mergeRows(arena, j, lr, rr))
				if needLi {
					res.li = append(res.li, liOf(i))
				}
			}
		}
		return res
	}
	tab := newJoinTable(j.shared, len(rrows))
	for i, rr := range rrows {
		if j.rKeyable(rr) {
			tab.add(rr, false, int32(i))
		}
	}
	// Counting pass: probing twice is far cheaper than growing the output
	// slice and row storage through repeated reallocation.
	total := 0
	for _, lr := range lrows {
		if j.lKeyable(lr) {
			total += int(tab.lookup(lr, true).n)
		}
	}
	if total == 0 {
		return res
	}
	arena := presizedArena(total, j.width)
	res.rows = make([][]rdf.ID, 0, total)
	if needLi {
		res.li = make([]int32, 0, total)
	}
	for i, lr := range lrows {
		if !j.lKeyable(lr) {
			continue
		}
		c := tab.lookup(lr, true)
		for ri, k := c.head, c.n; k > 0; ri, k = tab.next[ri], k-1 {
			res.rows = append(res.rows, mergeRows(arena, j, lr, rrows[ri]))
			if needLi {
				res.li = append(res.li, liOf(i))
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
func mergeOrdered(results []partOut) [][]rdf.ID {
	total := 0
	for _, r := range results {
		total += len(r.rows)
	}
	if total == 0 {
		return nil
	}
	out := make([][]rdf.ID, 0, total)
	cur := make([]int, len(results))
	for len(out) < total {
		best := -1
		var bestLi int32
		for i := range results {
			c := cur[i]
			if c < len(results[i].rows) && (best < 0 || results[i].li[c] < bestLi) {
				best, bestLi = i, results[i].li[c]
			}
		}
		r := &results[best]
		c := cur[best]
		for c < len(r.rows) && r.li[c] == bestLi {
			out = append(out, r.rows[c])
			c++
		}
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
	out := &match.Bindings{Vars: j.outVars}
	if len(left.Rows) == 0 || len(right.Rows) == 0 {
		return out
	}
	p := opts.partitions(len(j.shared))
	if p == 1 {
		out.Rows = joinOrdered(j, left.Rows, nil, right.Rows, false).rows
		return out
	}
	lparts := make([]partIn, p)
	rparts := make([]partIn, p)
	routeRows(j, p, left.Rows, true, lparts)
	routeRows(j, p, right.Rows, false, rparts)
	out.Rows = mergeOrdered(joinPartitions(j, lparts, rparts))
	return out
}

// routeRows partitions one side's rows by join key, recording global
// arrival indexes for the ordered merge.
func routeRows(j *joinGeom, p int, rows [][]rdf.ID, left bool, parts []partIn) {
	for i, row := range rows {
		if !j.keyableSide(row, left) {
			continue
		}
		pt := partitionFor(row, j.shared, left, p)
		parts[pt].rows = append(parts[pt].rows, row)
		parts[pt].idx = append(parts[pt].idx, int32(i))
	}
}

// joinPartitions joins each partition pair in parallel, one shared-nothing
// worker per partition.
func joinPartitions(j *joinGeom, lparts, rparts []partIn) []partOut {
	results := make([]partOut, len(lparts))
	var wg sync.WaitGroup
	for i := range results {
		if len(lparts[i].rows) == 0 || len(rparts[i].rows) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = joinOrdered(j, lparts[i].rows, lparts[i].idx, rparts[i].rows, true)
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
	p := opts.partitions(len(j.shared))
	if opts.Deterministic {
		joinStreamDet(ctx, j, p, left, right, out)
		return
	}
	if p == 1 {
		// Single-partition streaming — the default under server load and
		// every legacy JoinStream call — joins inline off the input
		// channels: no routers, no partition channels, no extra hop.
		joinStreamSeq(ctx, j, left, right, out)
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
			joinStreamWorker(ctx, j, lch[i], rch[i], out)
		}(i)
	}
	wg.Wait()
}

// partChanBuf is the per-partition channel depth: enough to decouple the
// router from a worker mid-probe without hoarding batches.
const partChanBuf = 2

func makePartChans(p int) []chan [][]rdf.ID {
	chs := make([]chan [][]rdf.ID, p)
	for i := range chs {
		chs[i] = make(chan [][]rdf.ID, partChanBuf)
	}
	return chs
}

// routeStream reads one input side and scatters each batch's rows to the
// per-partition channels (always ≥2 of them; P=1 joins inline without a
// router) by join key, preserving per-partition arrival order. It closes
// the partition channels when the input closes or ctx is cancelled.
func routeStream(ctx context.Context, j *joinGeom, in <-chan *match.Bindings, chs []chan [][]rdf.ID, left bool) {
	defer func() {
		for _, ch := range chs {
			close(ch)
		}
	}()
	p := len(chs)
	pending := make([][][]rdf.ID, p)
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
		for _, row := range b.Rows {
			if !j.keyableSide(row, left) {
				continue
			}
			pt := partitionFor(row, j.shared, left, p)
			pending[pt] = append(pending[pt], row)
		}
		for i, rows := range pending {
			if len(rows) == 0 {
				continue
			}
			select {
			case chs[i] <- rows:
			case <-ctx.Done():
				return
			}
			pending[i] = nil
		}
	}
}

// rowStore is an append-only list of rows that never copies on growth:
// chunk c holds rowStoreFirst<<c rows, so row i lives in the chunk named
// by the bit length of i+rowStoreFirst.
type rowStore struct {
	chunks [][][]rdf.ID
	n      int32
}

// rowStoreFirst is the first chunk's size in rows, a power of two.
const rowStoreFirst = 4

// slot returns the chunk and offset of row i.
func (s *rowStore) slot(i int32) (c int, off uint32) {
	u := uint32(i) + rowStoreFirst
	c = bits.Len32(u) - bits.Len32(rowStoreFirst)
	return c, u ^ rowStoreFirst<<c
}

func (s *rowStore) at(i int32) []rdf.ID {
	c, off := s.slot(i)
	return s.chunks[c][off]
}

func (s *rowStore) push(row []rdf.ID) {
	c, off := s.slot(s.n)
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([][]rdf.ID, rowStoreFirst<<c))
	}
	s.chunks[c][off] = row
	s.n++
}

// symSide is one input of the symmetric join: its rows seen so far and
// the table indexing them.
type symSide struct {
	tab  *joinTable
	rows rowStore
}

// symJoiner is the symmetric (pipelined) hash-join core shared by the
// single-partition path and the per-partition workers: each arriving row
// is inserted into its side's table and probed against the other side's
// rows seen so far, so every matching pair is produced exactly once, as
// soon as its later row arrives. Rows must be pre-filtered keyable. The
// arena lives for the whole stream: merged rows are carved from chunks
// that survive across batches, so emitting N rows costs ~N/chunk
// allocations instead of N.
type symJoiner struct {
	j           *joinGeom
	left, right symSide
	arena       rowArena
	hits        []chain // per row of the batch being probed; reused
}

func newSymJoiner(j *joinGeom) *symJoiner {
	return &symJoiner{j: j, left: symSide{tab: newJoinTable(j.shared, 0)}, right: symSide{tab: newJoinTable(j.shared, 0)}}
}

// probe inserts a batch of rows into its side (left names it) and returns
// their merged matches against the other side's rows seen so far. The
// first pass stores the rows and counts the matches, so the output slice
// and the arena chunk behind it are sized once, exactly.
func (s *symJoiner) probe(batch [][]rdf.ID, left bool) [][]rdf.ID {
	own, other := &s.right, &s.left
	if left {
		own, other = other, own
	}
	if cap(s.hits) < len(batch) {
		s.hits = make([]chain, 0, len(batch))
	}
	s.hits = s.hits[:0]
	total := 0
	for _, row := range batch {
		own.tab.add(row, left, own.rows.n)
		own.rows.push(row)
		c := other.tab.lookup(row, left)
		s.hits = append(s.hits, c)
		total += int(c.n)
	}
	if total == 0 {
		return nil
	}
	found := make([][]rdf.ID, 0, total)
	s.arena.expect = total * s.j.width
	for i, row := range batch {
		c := s.hits[i]
		for o, k := c.head, c.n; k > 0; o, k = other.tab.next[o], k-1 {
			lr, rr := row, other.rows.at(o)
			if !left {
				lr, rr = rr, lr
			}
			found = append(found, mergeRows(&s.arena, s.j, lr, rr))
		}
	}
	return found
}

// emitRows sends one non-empty output batch, reporting false when ctx is
// done. The out channel may be shared by several workers — the send is
// the serialized sink.
func emitRows(ctx context.Context, out chan<- *match.Bindings, vars []string, rows [][]rdf.ID) bool {
	if len(rows) == 0 {
		return true
	}
	select {
	case out <- &match.Bindings{Vars: vars, Rows: rows}:
		return true
	case <-ctx.Done():
		return false
	}
}

// filterKeyable drops rows missing a shared column. Well-formed batches
// (the overwhelmingly common case) pass through without copying.
func filterKeyable(rows [][]rdf.ID, j *joinGeom, left bool) [][]rdf.ID {
	for i, r := range rows {
		if !j.keyableSide(r, left) {
			kept := append([][]rdf.ID(nil), rows[:i]...)
			for _, r := range rows[i+1:] {
				if j.keyableSide(r, left) {
					kept = append(kept, r)
				}
			}
			return kept
		}
	}
	return rows
}

// runSymLoop drives one symJoiner over a pair of batch streams until
// both close, ctx is done, or an emit fails; rows extracts a batch's
// pre-filtered rows for its side. Both streaming paths share this loop,
// so the two cannot diverge.
func runSymLoop[B any](ctx context.Context, j *joinGeom, left, right <-chan B, out chan<- *match.Bindings, rows func(B, bool) [][]rdf.ID) {
	s := newSymJoiner(j)
	for left != nil || right != nil {
		select {
		case b, ok := <-left:
			if !ok {
				left = nil
				continue
			}
			if !emitRows(ctx, out, j.outVars, s.probe(rows(b, true), true)) {
				return
			}
		case b, ok := <-right:
			if !ok {
				right = nil
				continue
			}
			if !emitRows(ctx, out, j.outVars, s.probe(rows(b, false), false)) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// joinStreamSeq is the single-partition streaming join — the default
// under server load and every legacy JoinStream call — running the
// symmetric core directly over the input batch streams: no routers, no
// partition channels, no extra hop.
func joinStreamSeq(ctx context.Context, j *joinGeom, left, right <-chan *match.Bindings, out chan<- *match.Bindings) {
	runSymLoop(ctx, j, left, right, out, func(b *match.Bindings, left bool) [][]rdf.ID {
		return filterKeyable(b.Rows, j, left)
	})
}

// joinStreamWorker is one partition's streaming join: the symmetric core
// over the router's pre-filtered per-partition batches, with
// worker-private tables, row storage and arena.
func joinStreamWorker(ctx context.Context, j *joinGeom, left, right <-chan [][]rdf.ID, out chan<- *match.Bindings) {
	runSymLoop(ctx, j, left, right, out, func(b [][]rdf.ID, _ bool) [][]rdf.ID { return b })
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
		routeBuffer(ctx, j, p, left, true, lparts)
	}()
	go func() {
		defer wg.Done()
		routeBuffer(ctx, j, p, right, false, rparts)
	}()
	wg.Wait()
	if ctx.Err() != nil {
		return
	}
	var rows [][]rdf.ID
	if p == 1 {
		rows = joinOrdered(j, lparts[0].rows, lparts[0].idx, rparts[0].rows, false).rows
	} else {
		rows = mergeOrdered(joinPartitions(j, lparts, rparts))
	}
	for i := 0; i < len(rows); i += DefaultBatchSize {
		end := i + DefaultBatchSize
		if end > len(rows) {
			end = len(rows)
		}
		select {
		case out <- &match.Bindings{Vars: j.outVars, Rows: rows[i:end]}:
		case <-ctx.Done():
			return
		}
	}
}

// routeBuffer is routeStream's buffering twin for the deterministic mode:
// rows scatter into per-partition input buffers with their global arrival
// index instead of onto channels.
func routeBuffer(ctx context.Context, j *joinGeom, p int, in <-chan *match.Bindings, left bool, parts []partIn) {
	var n int32
	for {
		select {
		case b, ok := <-in:
			if !ok {
				return
			}
			for _, row := range b.Rows {
				i := n
				n++
				if !j.keyableSide(row, left) {
					continue
				}
				pt := 0
				if p > 1 {
					pt = partitionFor(row, j.shared, left, p)
				}
				parts[pt].rows = append(parts[pt].rows, row)
				parts[pt].idx = append(parts[pt].idx, i)
			}
		case <-ctx.Done():
			return
		}
	}
}
