// Package wal is a write-ahead log for update batches: length-prefixed,
// CRC32C-framed records with monotonically increasing sequence numbers,
// written to size-rotated segment files. A served deployment appends
// every update batch here before acknowledging it; on restart, the
// records past the last checkpoint are replayed through the normal
// apply path, truncating at the first torn or checksum-failing record
// (a crash mid-write loses at most the unsynced tail, never yields a
// corrupt state).
//
// Durability is governed by the sync policy: SyncAlways fsyncs inside
// every Append (an ack implies the record is on stable storage),
// SyncInterval group-commits via a background flush ticker (acks can
// run ahead of the disk by up to one interval — the clean-shutdown path
// closes that window), SyncNone never syncs (tests, bulk loads). The
// filesystem behind the log is an injectable seam (FS); ChaosFS
// implements machine-crash semantics for the recovery soak.
package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rdffrag/internal/metrics"
)

// ErrClosed fails operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy says when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Append returns: an acknowledged batch
	// has reached stable storage.
	SyncAlways SyncPolicy = iota
	// SyncInterval group-commits: Append returns immediately and a
	// background ticker fsyncs the dirty tail every FlushInterval. A
	// machine crash can lose up to one interval of acknowledged
	// batches; a clean Close loses nothing.
	SyncInterval
	// SyncNone never fsyncs until Close.
	SyncNone
)

// String renders the policy the way the -wal-sync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy inverts SyncPolicy.String.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

// Options configures a Log. Dir is required; the zero value of
// everything else is usable.
type Options struct {
	// Dir holds the segment files; it is created if absent.
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// FlushInterval is the SyncInterval group-commit period (default
	// 2ms).
	FlushInterval time.Duration
	// SegmentBytes rotates the live segment once it grows past this
	// size (default 64 MiB).
	SegmentBytes int64
	// DictState, when non-nil, reports the term-dictionary state (length
	// and prefix fingerprint) stamped into each new segment's header;
	// recovery hands it back per segment so the caller can refuse to
	// replay a log against a mismatched checkpoint.
	DictState func() (n int, fp uint64)
	// FS is the filesystem seam (default: the real filesystem).
	FS FS
}

func (o Options) withDefaults() Options {
	if o.FlushInterval <= 0 {
		o.FlushInterval = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// Metrics is a point-in-time snapshot of the log's counters.
type Metrics struct {
	// Appends and AppendedBytes count records (and their on-disk bytes)
	// written since Open; Fsyncs counts completed fsyncs.
	Appends       uint64
	Fsyncs        uint64
	AppendedBytes uint64
	// LiveBytes and Segments describe the current on-disk footprint
	// (headers included); LastSeq is the newest sequence number.
	LiveBytes int64
	Segments  int
	LastSeq   uint64
	// TruncatedBytes is how much torn/corrupt tail Open dropped.
	TruncatedBytes int64
	// AppendP99 and FsyncP99 are recent-window latency percentiles.
	AppendP99 time.Duration
	FsyncP99  time.Duration
}

// segInfo tracks one on-disk segment. firstSeq is the first sequence
// number that can land in the segment: every record in it has
// seq >= firstSeq, and every record in earlier segments has a smaller
// sequence number.
type segInfo struct {
	name     string
	firstSeq uint64
	size     int64
}

// latWindowSize is how many recent append and fsync latencies the p99s
// are read from.
const latWindowSize = 1024

// Log is a write-ahead log over one directory. Append/Sync/Rotate/
// Retire are safe for concurrent use; Replay must run before the first
// Append.
type Log struct {
	opts Options
	fs   FS

	mu      sync.Mutex
	segs    []segInfo
	cur     File
	lastSeq uint64
	dirty   bool
	closed  bool
	syncErr error // a failed background fsync poisons the log
	buf     []byte

	appends       uint64
	fsyncs        uint64
	appendedBytes uint64
	truncated     int64
	appendLat     *metrics.Window
	fsyncLat      *metrics.Window

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open opens (or creates) the log in opts.Dir, recovering from whatever
// a crash left behind: the tail is scanned record by record and
// truncated at the first torn or CRC-failing frame, and any segments
// after a corrupt one are discarded (nothing after a tear is
// trustworthy — sequence numbers would have a hole anyway). A segment
// in another RDFWAL format is not damage: Open fails, naming the format,
// and leaves the directory as it found it.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	opts = opts.withDefaults()
	l := &Log{
		opts:      opts,
		fs:        opts.FS,
		appendLat: metrics.NewWindow(latWindowSize),
		fsyncLat:  metrics.NewWindow(latWindowSize),
	}
	if err := l.fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		if err := l.openSegmentLocked(l.lastSeq + 1); err != nil {
			return nil, err
		}
	} else {
		last := l.segs[len(l.segs)-1]
		f, err := l.fs.OpenAppend(filepath.Join(opts.Dir, last.name))
		if err != nil {
			return nil, fmt.Errorf("wal: reopen %s: %w", last.name, err)
		}
		l.cur = f
	}
	if opts.Sync == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flusher()
	}
	return l, nil
}

// recover scans the directory, validating every segment in sequence
// order and repairing the tail.
func (l *Log) recover() error {
	names, err := l.fs.List(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var cands []segInfo
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			cands = append(cands, segInfo{name: name, firstSeq: first})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].firstSeq < cands[j].firstSeq })

	drop := func(from int) error {
		for _, c := range cands[from:] {
			if err := l.fs.Remove(filepath.Join(l.opts.Dir, c.name)); err != nil {
				return fmt.Errorf("wal: drop corrupt segment %s: %w", c.name, err)
			}
		}
		return nil
	}

	// Sequence numbering starts where the oldest surviving segment says
	// it does, not at zero: after a checkpoint retires every older
	// segment (or tears the newest one's header), the log may hold no
	// records at all, yet new appends must continue the global sequence
	// — reusing retired numbers would make replay's seq filter skip
	// fresh records.
	if len(cands) > 0 {
		l.lastSeq = cands[0].firstSeq - 1
	}
	for i, c := range cands {
		path := filepath.Join(l.opts.Dir, c.name)
		data, err := l.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: read %s: %w", c.name, err)
		}
		_, _, err = decodeSegHeader(data)
		if err != nil && !errors.Is(err, errTornHeader) {
			// Another format's segment is somebody's data, not damage:
			// nothing has been touched yet, and nothing will be.
			return fmt.Errorf("wal: segment %s %w", c.name, err)
		}
		if err != nil || c.firstSeq != l.lastSeq+1 {
			// A crash during segment creation tears the header before
			// any record lands; a firstSeq gap means the covering
			// segment was lost. Either way nothing from here on is
			// replayable.
			l.truncated += int64(len(data))
			return drop(i)
		}
		recs, valid := scanSegment(data, l.lastSeq)
		if len(recs) > 0 {
			l.lastSeq = recs[len(recs)-1].Seq
		}
		c.size = valid
		l.segs = append(l.segs, c)
		if valid < int64(len(data)) {
			l.truncated += int64(len(data)) - valid
			if err := l.fs.Truncate(path, valid); err != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", c.name, err)
			}
			return drop(i + 1)
		}
	}
	return nil
}

// openSegmentLocked creates and switches to a fresh segment whose first
// record will carry firstSeq.
func (l *Log) openSegmentLocked(firstSeq uint64) error {
	name := segName(firstSeq)
	f, err := l.fs.Create(filepath.Join(l.opts.Dir, name))
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	dictLen, dictFP := 0, uint64(0)
	if l.opts.DictState != nil {
		dictLen, dictFP = l.opts.DictState()
	}
	hdr := encodeSegHeader(dictLen, dictFP)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.cur = f
	l.dirty = true
	l.segs = append(l.segs, segInfo{name: name, firstSeq: firstSeq, size: int64(len(hdr))})
	return nil
}

// Append frames payload as the next record of the given kind and writes
// it to the live segment, rotating first if the segment is over size.
// Under SyncAlways the record is fsynced before Append returns. The
// returned sequence number is what replay idempotence keys on. A kind
// other than KindInsert is refused: recovery would truncate the log at
// it.
func (l *Log) Append(kind Kind, payload []byte) (uint64, error) {
	if kind != KindInsert {
		return 0, fmt.Errorf("wal: record kind %d is not one this format has", kind)
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.syncErr != nil {
		// A failed background fsync means acknowledged records may not
		// be durable; stop acknowledging more.
		return 0, fmt.Errorf("wal: log poisoned by failed flush: %w", l.syncErr)
	}
	if l.segs[len(l.segs)-1].size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	seq := l.lastSeq + 1
	l.buf = appendRecord(l.buf[:0], seq, kind, payload)
	if _, err := l.cur.Write(l.buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.lastSeq = seq
	l.segs[len(l.segs)-1].size += int64(len(l.buf))
	l.dirty = true
	l.appends++
	l.appendedBytes += uint64(len(l.buf))
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	l.appendLat.Observe(time.Since(start))
	return seq, nil
}

// Sync fsyncs the dirty tail now, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.fsyncs++
	l.fsyncLat.Observe(time.Since(start))
	return nil
}

// flusher is the SyncInterval group-commit ticker.
func (l *Log) flusher() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.syncErr == nil {
				l.syncErr = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Rotate seals the live segment (fsyncing it) and starts a fresh one,
// stamping the current dictionary state into its header. The
// checkpointer rotates so the segments preceding the checkpoint become
// retireable.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if l.segs[len(l.segs)-1].size <= int64(segHeaderSize) {
		return nil // the live segment is empty; nothing to seal
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	return l.openSegmentLocked(l.lastSeq + 1)
}

// Retire removes sealed segments every record of which has sequence
// number <= upTo — they are covered by a checkpoint. The live segment
// is never removed.
func (l *Log) Retire(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segs[:0]
	for i, seg := range l.segs {
		// A sealed segment's records all precede the next segment's
		// firstSeq, so it is covered iff that bound is <= upTo+1.
		if i < len(l.segs)-1 && l.segs[i+1].firstSeq <= upTo+1 {
			if err := l.fs.Remove(filepath.Join(l.opts.Dir, seg.name)); err != nil {
				return fmt.Errorf("wal: retire %s: %w", seg.name, err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return nil
}

// Replay streams every record with sequence number > after, in order.
// enterSegment, when non-nil, runs before the first replayed record of
// each segment with the dictionary state stamped at that segment's
// creation; an error from either callback aborts the replay. Replay
// must run before the first Append.
func (l *Log) Replay(after uint64, enterSegment func(dictLen int, dictFP uint64) error, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	l.mu.Unlock()
	for _, seg := range segs {
		if seg.size <= int64(segHeaderSize) {
			continue // empty (header-only) segment
		}
		data, err := l.fs.ReadFile(filepath.Join(l.opts.Dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.name, err)
		}
		dictLen, dictFP, err := decodeSegHeader(data)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.name, err)
		}
		recs, _ := scanSegment(data, seg.firstSeq-1)
		entered := false
		for _, rec := range recs {
			if rec.Seq <= after {
				continue
			}
			if !entered {
				entered = true
				if enterSegment != nil {
					if err := enterSegment(dictLen, dictFP); err != nil {
						return err
					}
				}
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// LastSeq reports the newest sequence number (0 when the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Size reports the live on-disk footprint in bytes, headers included.
// The checkpointer triggers on it.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sizeLocked()
}

func (l *Log) sizeLocked() int64 {
	var total int64
	for _, seg := range l.segs {
		total += seg.size
	}
	return total
}

// Metrics snapshots the log's counters. The latency windows are read
// after l.mu is released: their sort never stalls an Append.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	m := Metrics{
		Appends:        l.appends,
		Fsyncs:         l.fsyncs,
		AppendedBytes:  l.appendedBytes,
		LiveBytes:      l.sizeLocked(),
		Segments:       len(l.segs),
		LastSeq:        l.lastSeq,
		TruncatedBytes: l.truncated,
	}
	l.mu.Unlock()
	m.AppendP99 = l.appendLat.Percentiles(0.99)[0]
	m.FsyncP99 = l.fsyncLat.Percentiles(0.99)[0]
	return m
}

// Close flushes, fsyncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop, done := l.flushStop, l.flushDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	return err
}
