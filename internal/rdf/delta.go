package rdf

import (
	"slices"
	"sync"
	"sync/atomic"
)

// DeltaHalf is one adjacency entry of a generation's delta overlay: the
// half-edge plus the sequence number of the triple that produced it
// (its 0-based position in the generation's append order). Snapshots pin
// a delta length n and treat entries with Seq >= n as invisible, so a
// writer appending mid-query never changes what a pinned reader sees.
type DeltaHalf struct {
	H   HalfEdge
	Seq uint32
}

// DeltaTriple is DeltaHalf for the per-predicate triple runs.
type DeltaTriple struct {
	T   Triple
	Seq uint32
}

// deltaOp is one entry of a generation's operation log: the triple, the
// running add count through this op (so a reader can turn an op-window
// length into an order-prefix length in O(1)), and whether the op is a
// delete. The op at index i has sequence number i — the same space the
// runs' Seq fields index into.
type deltaOp struct {
	T    Triple
	Adds uint32 // adds among ops[0..i] inclusive
	Del  bool
}

// genDelta is the mutable side of one CSR generation: Adds and Deletes
// accumulate here instead of rebuilding the CSR, LSM-style.
// Inserts land in the out/in/byPred runs, deletes land as tombstones in
// the tombOut/tombIn/tombByPred side-runs with the same sort discipline.
// Each per-vertex run is kept sorted by (P, Other) and each
// per-predicate run by (S, O) — the same orders the CSR arenas use — so
// read paths can merge a CSR run with its delta runs and produce exactly
// the sequence a freshly rebuilt CSR would serve.
//
// The index is single-writer, many-reader. Runs are immutable once
// published: the writer inserts copy-on-write (load the run, build a new
// slice with the entry spliced in, store it back), so a reader holding a
// run can iterate it while the writer publishes successors. Run stores
// happen before the length counter's increment, so a reader that loads
// n is guaranteed to find every entry with Seq < n in the runs it loads
// afterwards; entries beyond its n it filters by Seq.
//
// Per-triple visibility is latest-op-wins: within one key, the highest
// visible insert seq vs the highest visible tombstone seq decides (the
// writer's Add/Delete preconditions guarantee the two alternate, so the
// comparison is total). dels is a published hint — a reader that loads
// n and then reads dels == 0 knows no tombstone can be visible at its
// bound and takes the insert-only fast paths unchanged.
type genDelta struct {
	n      atomic.Int64 // published delta length (ops fully indexed)
	dels   atomic.Int64 // published tombstone count (0 = insert-only so far)
	out    sync.Map     // ID -> []DeltaHalf, sorted by (P, Other)
	in     sync.Map     // ID -> []DeltaHalf, sorted by (P, Other)
	byPred sync.Map     // ID -> []DeltaTriple, sorted by (S, O)

	tombOut    sync.Map // ID -> []DeltaHalf tombstones, sorted by (P, Other)
	tombIn     sync.Map // ID -> []DeltaHalf tombstones, sorted by (P, Other)
	tombByPred sync.Map // ID -> []DeltaTriple tombstones, sorted by (S, O)

	// ops is the writer-owned operation log; opsHdr republishes its
	// header after every append (before n increments), so a reader with
	// bound n can slice ops[:n] and replay its exact visibility window.
	ops    []deltaOp
	opsHdr atomic.Pointer[[]deltaOp]
}

// CompareHalf orders adjacency entries by (P, Other) — the CSR run order.
func CompareHalf(a, b HalfEdge) int {
	if a.P != b.P {
		return int(a.P) - int(b.P)
	}
	return int(a.Other) - int(b.Other)
}

// CompareSO orders same-predicate triples by (S, O) — the predicate
// arena's within-run order.
func CompareSO(a, b Triple) int {
	if a.S != b.S {
		return int(a.S) - int(b.S)
	}
	return int(a.O) - int(b.O)
}

// add indexes one (already deduplicated) triple under sequence number
// seq, keeping every run sorted. Writer-only; the caller publishes the
// triple to readers afterwards by incrementing n.
func (d *genDelta) add(t Triple, seq uint32) {
	d.out.Store(t.S, insertDeltaHalf(loadHalfRun(&d.out, t.S), DeltaHalf{H: HalfEdge{P: t.P, Other: t.O}, Seq: seq}))
	d.in.Store(t.O, insertDeltaHalf(loadHalfRun(&d.in, t.O), DeltaHalf{H: HalfEdge{P: t.P, Other: t.S}, Seq: seq}))
	run := loadTripleRun(&d.byPred, t.P)
	i, _ := slices.BinarySearchFunc(run, t, func(a DeltaTriple, b Triple) int { return CompareSO(a.T, b) })
	d.byPred.Store(t.P, insertAt(run, i, DeltaTriple{T: t, Seq: seq}))
}

// addTomb indexes one tombstone under sequence number seq, mirroring add
// into the tombstone side-runs. Writer-only; the caller publishes via
// dels and n afterwards.
func (d *genDelta) addTomb(t Triple, seq uint32) {
	d.tombOut.Store(t.S, insertDeltaHalf(loadHalfRun(&d.tombOut, t.S), DeltaHalf{H: HalfEdge{P: t.P, Other: t.O}, Seq: seq}))
	d.tombIn.Store(t.O, insertDeltaHalf(loadHalfRun(&d.tombIn, t.O), DeltaHalf{H: HalfEdge{P: t.P, Other: t.S}, Seq: seq}))
	run := loadTripleRun(&d.tombByPred, t.P)
	i, _ := slices.BinarySearchFunc(run, t, func(a DeltaTriple, b Triple) int { return CompareSO(a.T, b) })
	d.tombByPred.Store(t.P, insertAt(run, i, DeltaTriple{T: t, Seq: seq}))
}

// appendOp records one op in the log and republishes the header. The
// end-append into spare capacity is safe for the same reason insertAt's
// fast path is: the write lands one past every published header's
// length, invisible to readers until the new header is stored.
func (d *genDelta) appendOp(t Triple, del bool) {
	adds := uint32(0)
	if len(d.ops) > 0 {
		adds = d.ops[len(d.ops)-1].Adds
	}
	if !del {
		adds++
	}
	d.ops = append(d.ops, deltaOp{T: t, Adds: adds, Del: del})
	hdr := d.ops
	d.opsHdr.Store(&hdr)
}

func loadHalfRun(m *sync.Map, k ID) []DeltaHalf {
	if v, ok := m.Load(k); ok {
		return v.([]DeltaHalf)
	}
	return nil
}

func loadTripleRun(m *sync.Map, k ID) []DeltaTriple {
	if v, ok := m.Load(k); ok {
		return v.([]DeltaTriple)
	}
	return nil
}

func insertDeltaHalf(run []DeltaHalf, dh DeltaHalf) []DeltaHalf {
	i, _ := slices.BinarySearchFunc(run, dh.H, func(a DeltaHalf, b HalfEdge) int { return CompareHalf(a.H, b) })
	return insertAt(run, i, dh)
}

// insertAt splices v into run at i. Readers may hold the old run
// header, so no element below len(run) is ever moved or overwritten:
// mid-run inserts copy into a fresh slice (with capacity headroom so
// future inserts can use the fast path). The one safe in-place case is
// an end-insert into spare capacity — the write lands one past every
// published header's length, invisible to readers until the new header
// is stored — which makes sorted streams of ascending keys (fresh dict
// IDs are monotone) amortized O(1) instead of a full copy per Add.
func insertAt[T any](run []T, i int, v T) []T {
	if i == len(run) && cap(run) > len(run) {
		return append(run, v)
	}
	out := make([]T, 0, 2*(len(run)+1))
	out = append(out, run[:i]...)
	out = append(out, v)
	return append(out, run[i:]...)
}

// predRangeDeltaHalf narrows a (P, Other)-sorted delta run to the
// contiguous sub-run labelled p (the DeltaHalf analogue of predRange).
func predRangeDeltaHalf(hs []DeltaHalf, p ID) []DeltaHalf {
	lo, hi := 0, len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hs[mid].H.P < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	hi = len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hs[mid].H.P <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return hs[start:lo]
}

// mergeSorted interleaves two sorted runs into one allocated slice,
// preferring base on ties (ties cannot occur between a CSR run and its
// delta — a triple lives in exactly one of the two). It backs the
// allocating single-slice snapshot accessors and the vertex/predicate
// set merges; the hot path merges inline in the match cursor instead.
func mergeSorted[T any](base, delta []T, cmp func(T, T) int) []T {
	out := make([]T, 0, len(base)+len(delta))
	i, j := 0, 0
	for i < len(base) && j < len(delta) {
		if cmp(delta[j], base[i]) < 0 {
			out = append(out, delta[j])
			j++
		} else {
			out = append(out, base[i])
			i++
		}
	}
	out = append(out, base[i:]...)
	return append(out, delta[j:]...)
}

// visibleHalf filters a delta adjacency run down to the entries a
// snapshot with visibility bound n sees, as bare half-edges. Allocates
// only when the run carries invisible entries.
func visibleHalf(run []DeltaHalf, bound uint32) []HalfEdge {
	hs := make([]HalfEdge, 0, len(run))
	for _, dh := range run {
		if dh.Seq < bound {
			hs = append(hs, dh.H)
		}
	}
	return hs
}

// visibleTriples is visibleHalf for per-predicate delta runs.
func visibleTriples(run []DeltaTriple, bound uint32) []Triple {
	ts := make([]Triple, 0, len(run))
	for _, dt := range run {
		if dt.Seq < bound {
			ts = append(ts, dt.T)
		}
	}
	return ts
}

// countVisibleHalf counts the entries of a delta run visible at bound.
func countVisibleHalf(run []DeltaHalf, bound uint32) int {
	n := 0
	for _, dh := range run {
		if dh.Seq < bound {
			n++
		}
	}
	return n
}

// countVisibleTriples is countVisibleHalf for per-predicate runs.
func countVisibleTriples(run []DeltaTriple, bound uint32) int {
	n := 0
	for _, dt := range run {
		if dt.Seq < bound {
			n++
		}
	}
	return n
}

// mergeHalf merges a CSR adjacency run and a filtered delta run in
// (P, Other) order.
func mergeHalf(base, delta []HalfEdge) []HalfEdge {
	return mergeSorted(base, delta, CompareHalf)
}

// mergeTriples merges a predicate arena run and its filtered delta run
// in (S, O) order.
func mergeTriples(base, delta []Triple) []Triple {
	return mergeSorted(base, delta, CompareSO)
}

// VisibleKey resolves latest-op-wins visibility for one key: the highest
// visible insert seq vs the highest visible tombstone seq, falling back
// to base presence when neither op is visible. The writer's Add/Delete
// preconditions (Add only when absent, Delete only when present) make
// inserts and tombstones of one key alternate, so comparing the two
// maxima is exact.
func VisibleKey(basePresent, insVis bool, insSeq uint32, tombVis bool, tombSeq uint32) bool {
	if insVis {
		return !tombVis || insSeq > tombSeq
	}
	return basePresent && !tombVis
}

// maxVisibleSeqHalf scans a (P, Other)-sorted delta run for entries
// matching key and returns whether any is visible at bound, with the
// highest visible seq.
func maxVisibleSeqHalf(run []DeltaHalf, key HalfEdge, bound uint32) (vis bool, seq uint32) {
	i, _ := slices.BinarySearchFunc(run, key, func(a DeltaHalf, b HalfEdge) int { return CompareHalf(a.H, b) })
	for ; i < len(run) && run[i].H == key; i++ {
		if run[i].Seq < bound && (!vis || run[i].Seq > seq) {
			vis, seq = true, run[i].Seq
		}
	}
	return vis, seq
}

// visibleMergedHalf merges a CSR adjacency run with its insert and
// tombstone delta runs at visibility bound, resolving each key with
// latest-op-wins. It produces exactly the run a freshly rebuilt CSR
// would serve for the visible triple set.
func visibleMergedHalf(base []HalfEdge, ins, tomb []DeltaHalf, bound uint32) []HalfEdge {
	out := make([]HalfEdge, 0, len(base)+len(ins))
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(ins) || k < len(tomb) {
		var key HalfEdge
		have := false
		if i < len(base) {
			key, have = base[i], true
		}
		if j < len(ins) && (!have || CompareHalf(ins[j].H, key) < 0) {
			key, have = ins[j].H, true
		}
		if k < len(tomb) && (!have || CompareHalf(tomb[k].H, key) < 0) {
			key = tomb[k].H
		}
		basePresent := i < len(base) && base[i] == key
		if basePresent {
			i++
		}
		var insVis, tombVis bool
		var insSeq, tombSeq uint32
		for ; j < len(ins) && ins[j].H == key; j++ {
			if ins[j].Seq < bound && (!insVis || ins[j].Seq > insSeq) {
				insVis, insSeq = true, ins[j].Seq
			}
		}
		for ; k < len(tomb) && tomb[k].H == key; k++ {
			if tomb[k].Seq < bound && (!tombVis || tomb[k].Seq > tombSeq) {
				tombVis, tombSeq = true, tomb[k].Seq
			}
		}
		if VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq) {
			out = append(out, key)
		}
	}
	return out
}

// visibleMergedTriples is visibleMergedHalf for per-predicate runs.
func visibleMergedTriples(base []Triple, ins, tomb []DeltaTriple, bound uint32) []Triple {
	out := make([]Triple, 0, len(base)+len(ins))
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(ins) || k < len(tomb) {
		var key Triple
		have := false
		if i < len(base) {
			key, have = base[i], true
		}
		if j < len(ins) && (!have || CompareSO(ins[j].T, key) < 0) {
			key, have = ins[j].T, true
		}
		if k < len(tomb) && (!have || CompareSO(tomb[k].T, key) < 0) {
			key = tomb[k].T
		}
		basePresent := i < len(base) && base[i] == key
		if basePresent {
			i++
		}
		var insVis, tombVis bool
		var insSeq, tombSeq uint32
		for ; j < len(ins) && ins[j].T == key; j++ {
			if ins[j].Seq < bound && (!insVis || ins[j].Seq > insSeq) {
				insVis, insSeq = true, ins[j].Seq
			}
		}
		for ; k < len(tomb) && tomb[k].T == key; k++ {
			if tomb[k].Seq < bound && (!tombVis || tomb[k].Seq > tombSeq) {
				tombVis, tombSeq = true, tomb[k].Seq
			}
		}
		if VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq) {
			out = append(out, key)
		}
	}
	return out
}

// countMergedHalf counts the visible entries of a merged (base, ins,
// tomb) adjacency run without materializing it: len(base) plus a
// per-key adjustment for every key the delta touches. O(|delta| log
// |base|) and allocation-free, so the exact-degree selectivity probes
// stay cheap with tombstones present.
func countMergedHalf(base []HalfEdge, ins, tomb []DeltaHalf, bound uint32) int {
	n := len(base)
	j, k := 0, 0
	for j < len(ins) || k < len(tomb) {
		var key HalfEdge
		if j < len(ins) && (k >= len(tomb) || CompareHalf(ins[j].H, tomb[k].H) <= 0) {
			key = ins[j].H
		} else {
			key = tomb[k].H
		}
		var insVis, tombVis bool
		var insSeq, tombSeq uint32
		for ; j < len(ins) && ins[j].H == key; j++ {
			if ins[j].Seq < bound && (!insVis || ins[j].Seq > insSeq) {
				insVis, insSeq = true, ins[j].Seq
			}
		}
		for ; k < len(tomb) && tomb[k].H == key; k++ {
			if tomb[k].Seq < bound && (!tombVis || tomb[k].Seq > tombSeq) {
				tombVis, tombSeq = true, tomb[k].Seq
			}
		}
		_, basePresent := slices.BinarySearchFunc(base, key, CompareHalf)
		if vis := VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq); vis && !basePresent {
			n++
		} else if !vis && basePresent {
			n--
		}
	}
	return n
}

// countMergedTriples is countMergedHalf for per-predicate runs.
func countMergedTriples(base []Triple, ins, tomb []DeltaTriple, bound uint32) int {
	n := len(base)
	j, k := 0, 0
	for j < len(ins) || k < len(tomb) {
		var key Triple
		if j < len(ins) && (k >= len(tomb) || CompareSO(ins[j].T, tomb[k].T) <= 0) {
			key = ins[j].T
		} else {
			key = tomb[k].T
		}
		var insVis, tombVis bool
		var insSeq, tombSeq uint32
		for ; j < len(ins) && ins[j].T == key; j++ {
			if ins[j].Seq < bound && (!insVis || ins[j].Seq > insSeq) {
				insVis, insSeq = true, ins[j].Seq
			}
		}
		for ; k < len(tomb) && tomb[k].T == key; k++ {
			if tomb[k].Seq < bound && (!tombVis || tomb[k].Seq > tombSeq) {
				tombVis, tombSeq = true, tomb[k].Seq
			}
		}
		_, basePresent := slices.BinarySearchFunc(base, key, CompareSO)
		if vis := VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq); vis && !basePresent {
			n++
		} else if !vis && basePresent {
			n--
		}
	}
	return n
}
