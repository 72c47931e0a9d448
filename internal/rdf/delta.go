package rdf

import (
	"sort"
	"sync"
	"sync/atomic"
)

// deltaOp is one entry of a generation's operation log: the triple, the
// running add count through this op (so a reader can turn an op-window
// length into a triple count in O(1)), and whether the op is a delete.
// The op at index i has sequence number i — the same space the runs' Seq
// fields index into.
type deltaOp struct {
	T    Triple
	Adds uint32 // adds among ops[0..i] inclusive
	Del  bool
}

// genDelta is the mutable side of one CSR generation: Adds and Deletes
// accumulate here instead of rebuilding the CSR, LSM-style. Every op is
// indexed the three ways the CSR is — under its subject, its object and
// its predicate — in runs with the CSR's sort discipline, the ops on one
// key next to each other in the order they were made. A Run pairs a CSR
// run with its delta run, and a Cursor merges them into exactly the
// sequence a freshly rebuilt CSR would serve.
//
// The index is single-writer, many-reader. Runs are immutable once
// published: the writer inserts copy-on-write (load the run, build a new
// slice with the entry spliced in, store it back), so a reader holding a
// run can iterate it while the writer publishes successors. Run stores
// happen before the length counter's increment, so a reader that loads
// n is guaranteed to find every op below n in the runs it loads
// afterwards; ops beyond its n it skips by their sequence numbers.
type genDelta struct {
	n atomic.Int64 // published delta length (ops fully indexed)

	out, in, pred sync.Map // ID -> []deltaPair: the ops on (P, O), (P, S), (S, O) under it

	// ops is the writer-owned operation log; opsHdr republishes its
	// header after every append (before n increments), so a reader with
	// bound n can slice ops[:n] and replay its exact visibility window.
	ops    []deltaOp
	opsHdr atomic.Pointer[[]deltaOp]
}

// index files the op with sequence number seq, an insert or a delete of
// t, in t's three runs. Writer-only; the caller publishes the op to
// readers afterwards by incrementing n.
func (d *genDelta) index(t Triple, seq uint32, del bool) {
	op := seq << 1
	if del {
		op |= 1
	}
	insertDelta(&d.out, t.S, deltaPair{Pair{t.P, t.O}, op})
	insertDelta(&d.in, t.O, deltaPair{Pair{t.P, t.S}, op})
	insertDelta(&d.pred, t.P, deltaPair{Pair{t.S, t.O}, op})
}

// insertDelta files e in k's run of m, after the ops already there on the
// same key.
func insertDelta(m *sync.Map, k ID, e deltaPair) {
	run := loadRun(m, k)
	i := sort.Search(len(run), func(i int) bool { return e.less(run[i].Pair) })
	m.Store(k, insertAt(run, i, e))
}

func loadRun(m *sync.Map, k ID) []deltaPair {
	if v, ok := m.Load(k); ok {
		return v.([]deltaPair)
	}
	return nil
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

// insertAt splices v into run at i. Readers may hold the old run
// header, so no element below len(run) is ever moved or overwritten:
// mid-run inserts copy into a fresh slice (with capacity headroom so
// future inserts can use the fast path). The one safe in-place case is
// an end-insert into spare capacity — the write lands one past every
// published header's length, invisible to readers until the new header
// is stored — which makes sorted streams of ascending keys (fresh dict
// IDs are monotone) amortized O(1) instead of a full copy per Add.
func insertAt(run []deltaPair, i int, v deltaPair) []deltaPair {
	if i == len(run) && cap(run) > len(run) {
		return append(run, v)
	}
	out := make([]deltaPair, 0, 2*(len(run)+1))
	out = append(out, run[:i]...)
	out = append(out, v)
	return append(out, run[i:]...)
}
