package rdffrag

// Durable updates: every acknowledged update batch — its delete-set, its
// insert-set and its TTL deadline, one record — is appended to a
// write-ahead log before it is applied, and a background checkpointer
// periodically folds the log into a persist image stamped with the last
// applied WAL sequence number. The checkpointer holds the writer lock
// only to compact, pin a snapshot of each graph and rotate the log; it
// streams the image to disk while updates go on. Restart loads the latest
// checkpoint and replays the WAL tail through the exact same
// Deployment.applyBatch path the live server uses, truncating at the
// first torn or CRC-failing record — so a crash (SIGKILL, power cut)
// loses at most updates that were never acknowledged (SyncAlways) or
// the last unflushed group-commit window (SyncInterval), and never
// yields torn, duplicated or resurrected state: replay is idempotent by
// sequence number, and re-applying a delete to a triple already gone is
// a no-op.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdffrag/internal/persist"
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/wal"
)

const (
	checkpointFile = "checkpoint.snap"
	cleanMarker    = "CLEAN"
	walSubdir      = "wal"
)

// DurabilityConfig configures a data directory for durable updates.
type DurabilityConfig struct {
	// Dir is the data directory: WAL segments (Dir/wal), the checkpoint
	// snapshot and the clean-shutdown marker. Required.
	Dir string
	// Sync is the WAL fsync policy: "always" (fsync per batch, before
	// the ack), "interval" (group commit on a flush ticker; an ack can
	// run ahead of the disk by up to FlushInterval) or "none" (tests).
	// Default "interval".
	Sync string
	// FlushInterval is the group-commit period for Sync == "interval"
	// (default 2ms).
	FlushInterval time.Duration
	// SegmentBytes rotates WAL segments past this size (default 64 MiB).
	SegmentBytes int64
	// CheckpointBytes triggers a background checkpoint once the live
	// WAL grows past it (default 8 MiB).
	CheckpointBytes int64
	// FS overrides the filesystem the WAL and the checkpoint's temp file
	// are written through — the fault-injection seam the crash harness
	// uses (wal.NewChaosFS): a checkpoint is written while updates append,
	// so a simulated crash can land inside either. Nil means the real
	// filesystem.
	FS wal.FS
}

func (c DurabilityConfig) withDefaults() (DurabilityConfig, wal.SyncPolicy, error) {
	if c.Dir == "" {
		return c, 0, fmt.Errorf("rdffrag: DurabilityConfig.Dir is required")
	}
	if c.Sync == "" {
		c.Sync = "interval"
	}
	pol, err := wal.ParseSyncPolicy(c.Sync)
	if err != nil {
		return c, 0, fmt.Errorf("rdffrag: %w", err)
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = 8 << 20
	}
	if c.FS == nil {
		c.FS = wal.OS()
	}
	return c, pol, nil
}

// Durable is a deployment's durability engine. Open one with
// OpenDurable, then either Recover (the data directory holds a
// checkpoint from a previous run) or Bootstrap (a freshly built
// deployment), and pass it to StartServer via ServerConfig.Durable;
// Server.Close then checkpoints, writes the clean-shutdown marker and
// closes the log.
type Durable struct {
	cfg DurabilityConfig
	pol wal.SyncPolicy
	log *wal.Log
	dep *Deployment
	srv *Server // set by StartServer; checkpoints capture under its data lock

	ckptMu        sync.Mutex    // one checkpoint at a time, capture to retire
	writing       atomic.Bool   // a checkpoint is between its log rotation and its retire
	appliedSeq    atomic.Uint64 // newest WAL seq applied to the deployment
	checkpointSeq atomic.Uint64 // WAL seq the latest checkpoint covers
	checkpoints   atomic.Uint64
	compactions   atomic.Uint64 // hot+cold compaction count at last checkpoint kick
	replayed      uint64        // records Recover applied; read-only afterwards
	cleanStart    bool

	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// HasCheckpoint reports whether dir holds a recoverable checkpoint —
// the Recover-vs-Bootstrap dispatch.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, checkpointFile))
	return err == nil
}

// OpenDurable validates cfg and prepares the data directory. No state
// is loaded yet: follow with Recover or Bootstrap.
func OpenDurable(cfg DurabilityConfig) (*Durable, error) {
	cfg, pol, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("rdffrag: data dir: %w", err)
	}
	return &Durable{
		cfg:  cfg,
		pol:  pol,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Recover rebuilds the deployment from the data directory: it loads the
// checkpoint snapshot, opens the WAL (truncating any torn tail), and
// replays every record past the checkpoint's sequence stamp through
// Deployment.applyBatch. Only cfg's runtime knobs apply — structure
// comes from the snapshot. After a clean shutdown the replay is empty
// and CleanStart reports true.
func (d *Durable) Recover(cfg Config) (*Deployment, error) {
	if d.dep != nil {
		return nil, fmt.Errorf("rdffrag: Durable already bound to a deployment")
	}
	// A crash mid-checkpoint can leave a stale temp file; the rename
	// never happened, so the previous checkpoint is still the truth.
	os.Remove(filepath.Join(d.cfg.Dir, checkpointFile+".tmp"))
	markerSeq, hadMarker := readCleanMarker(d.cfg.Dir)

	f, err := os.Open(filepath.Join(d.cfg.Dir, checkpointFile))
	if err != nil {
		return nil, fmt.Errorf("rdffrag: no checkpoint in %s (bootstrap the deployment first): %w", d.cfg.Dir, err)
	}
	dep, err := LoadDeployment(f, cfg)
	f.Close()
	if err != nil {
		return nil, err // a checkpoint this build cannot read leaves the directory as it was
	}
	// The marker only certifies the state at the moment it was written;
	// any progress past this point invalidates it.
	os.Remove(filepath.Join(d.cfg.Dir, cleanMarker))
	base := dep.walSeq
	d.appliedSeq.Store(base)
	d.checkpointSeq.Store(base)
	if err := d.openLog(dep); err != nil {
		return nil, err
	}

	// Replay the tail. Terms are interned as batches apply, in log order,
	// so each segment's dictionary stamp, taken as it opened, is a prefix
	// of what replay has rebuilt when it reaches the segment: a WAL from
	// another deployment fails here instead of replaying garbage.
	dict := dep.db.graph.Dict
	err = d.log.Replay(base, func(segLen int, segFP uint64) error {
		if segLen > dict.Len() || dict.Fingerprint(segLen) != segFP {
			return fmt.Errorf("rdffrag: WAL segment dictionary fingerprint mismatch: log and checkpoint are from different deployments")
		}
		return nil
	}, func(rec wal.Record) error {
		b, err := decodeBatch(dict, rec.Payload)
		if err != nil {
			return fmt.Errorf("rdffrag: WAL replay: record %d: %w", rec.Seq, err)
		}
		dep.applyBatch(b)
		d.appliedSeq.Store(rec.Seq)
		d.replayed++
		return nil
	})
	if err != nil {
		d.log.Close()
		return nil, err
	}
	if d.replayed > 0 {
		// The engine's published MVCC view was taken at load time,
		// before the replay landed in the delta overlays; publish a
		// fresh one so the first queries see the recovered state.
		dep.engine.Views().Publish()
	}
	d.cleanStart = hadMarker && d.replayed == 0 && markerSeq == d.log.LastSeq()
	d.compactions.Store(dep.compactions())
	d.dep = dep
	return dep, nil
}

// Bootstrap makes a freshly built deployment durable: it writes the
// initial checkpoint (sequence 0) and opens a fresh WAL, so a crash at
// any later point recovers through Recover.
func (d *Durable) Bootstrap(dep *Deployment) error {
	if d.dep != nil {
		return fmt.Errorf("rdffrag: Durable already bound to a deployment")
	}
	os.Remove(filepath.Join(d.cfg.Dir, cleanMarker))
	img := dep.capture(0)
	err := d.writeCheckpoint(img)
	img.Close()
	if err != nil {
		return err
	}
	d.dep = dep
	if err := d.openLog(dep); err != nil {
		d.dep = nil
		return err
	}
	d.compactions.Store(dep.compactions())
	return nil
}

func (d *Durable) openLog(dep *Deployment) error {
	dict := dep.db.graph.Dict
	log, err := wal.Open(wal.Options{
		Dir:           filepath.Join(d.cfg.Dir, walSubdir),
		Sync:          d.pol,
		FlushInterval: d.cfg.FlushInterval,
		SegmentBytes:  d.cfg.SegmentBytes,
		DictState: func() (int, uint64) {
			n := dict.Len()
			return n, dict.Fingerprint(n)
		},
		FS: d.cfg.FS,
	})
	if err != nil {
		return err
	}
	d.log = log
	return nil
}

// Batch payload layout, written by encodeBatch and read by decodeBatch
// only:
//
//	i64 deadline | u32 len(del) | del | ins
//
// Integers are little-endian; the deadline is in Unix microseconds, 0 for
// none (microseconds reach past the year 2262 that Unix nanoseconds stop
// at, so no Go duration of TTL overflows it). del and ins are N-Triples
// text; replay interns the insert side as the live apply did, in log
// order, so its terms land on the same IDs. Both sides share one record —
// one CRC frame — which is the whole atomicity story: a crash either
// persists the frame (recovery replays delete-set and insert-set
// together) or tears it (recovery truncates the frame whole), never half.
const batchHeader = 8 + 4

// encodeBatch renders one batch as its WAL record payload: the delete
// side from the renderings of its IDs, the insert side from its terms.
func encodeBatch(d *rdf.Dict, b serve.Batch) []byte {
	var deadline int64
	if !b.Deadline.IsZero() {
		deadline = b.Deadline.UnixMicro()
	}
	p := binary.LittleEndian.AppendUint64(nil, uint64(deadline))
	p = append(p, 0, 0, 0, 0)
	text := d.Rendered()
	for _, t := range b.Del {
		p = fmt.Appendf(p, "%s %s %s .\n", text[t.S], text[t.P], text[t.O])
	}
	binary.LittleEndian.PutUint32(p[8:], uint32(len(p)-batchHeader))
	for _, st := range b.Ins {
		p = fmt.Appendf(p, "%s %s %s .\n", st[0], st[1], st[2])
	}
	return p
}

// decodeBatch inverts encodeBatch. The delete side is looked up, as the
// live apply did; the insert side stays terms, for applyBatch to intern.
func decodeBatch(d *rdf.Dict, p []byte) (serve.Batch, error) {
	if len(p) < batchHeader {
		return serve.Batch{}, fmt.Errorf("rdffrag: a %d-byte batch payload is shorter than its header", len(p))
	}
	n := binary.LittleEndian.Uint32(p[8:])
	if int64(n) > int64(len(p)-batchHeader) {
		return serve.Batch{}, fmt.Errorf("rdffrag: a batch payload's %d-byte delete side overruns its %d bytes", n, len(p)-batchHeader)
	}
	var b serve.Batch
	if deadline := int64(binary.LittleEndian.Uint64(p)); deadline != 0 {
		b.Deadline = time.UnixMicro(deadline)
	}
	del, err := parseStatements(string(p[batchHeader : batchHeader+n]))
	if err != nil {
		return serve.Batch{}, err
	}
	b.Del = lookupTriples(d, del)
	if b.Ins, err = parseStatements(string(p[batchHeader+n:])); err != nil {
		return serve.Batch{}, err
	}
	return b, nil
}

// applyDurable is the serve-layer Apply sink of a durable deployment:
// WAL append first (under SyncAlways the fsync happens inside, so a
// batch is on stable storage before the caller can ack it), then the
// normal in-memory apply, which interns the insert side. The record
// carries the whole batch, deadline included, so replay re-applies it
// exactly as applied here. The caller holds the server's writer mutex, so
// append, sequence, apply and term-ID order all agree. A failed append
// rejects the batch before anything mutates, the dictionary included.
func (d *Durable) applyDurable(b serve.Batch) (serve.UpdateStats, error) {
	seq, err := d.log.Append(wal.KindInsert, encodeBatch(d.dep.db.graph.Dict, b))
	if err != nil {
		return serve.UpdateStats{}, fmt.Errorf("rdffrag: %w", err)
	}
	st := d.dep.applyBatch(b)
	st.Seq = seq
	d.appliedSeq.Store(seq)
	// Kick the checkpointer when the log has grown past the configured
	// bound, or when the hot or cold graph compacted (the snapshot is about
	// to be cheap to write and the delta overlay is empty anyway). Not
	// while a checkpoint is writing: the log's size still counts the
	// segments it is about to retire.
	if !d.writing.Load() && (d.log.Size() >= d.cfg.CheckpointBytes || st.Compactions > d.compactions.Load()) {
		d.compactions.Store(st.Compactions)
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
	return st, nil
}

// start binds the running server (checkpoints need its Exclusive lock)
// and launches the background checkpointer.
func (d *Durable) start(s *Server) {
	d.srv = s
	go func() {
		defer close(d.done)
		for {
			select {
			case <-d.stop:
				return
			case <-d.kick:
				d.Checkpoint() // a failed background checkpoint retries on the next kick
			}
		}
	}()
}

// Checkpoint writes a snapshot of the current state stamped with the
// last applied WAL sequence, atomically (tmp + fsync + rename), and
// retires the log segments it covers. Only the capture holds the
// server's writer lock, when a server is attached: it compacts every
// graph carrying a delta, pins a snapshot of each graph at the last
// applied sequence — a batch boundary — and rotates the log there. The
// write, the fsyncs, the rename and the retire run after the lock is
// released, while updates append to the fresh segment. Checkpoints run
// one at a time.
func (d *Durable) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	var img *persist.Image
	var err error
	capture := func() { img, err = d.capture() }
	if d.srv != nil {
		d.srv.inner.Exclusive(capture)
	} else {
		capture()
	}
	if err != nil {
		return err
	}
	defer d.writing.Store(false)
	defer img.Close()
	if err := d.writeCheckpoint(img); err != nil {
		return err
	}
	// Crash ordering: the checkpoint is durable before any log segment
	// is removed, and replay filters on the sequence stamp — a crash
	// between rename and retire just replays zero records from the
	// not-yet-retired segments.
	if err := d.log.Retire(img.WALSeq()); err != nil {
		return err
	}
	d.checkpointSeq.Store(img.WALSeq())
	d.checkpoints.Add(1)
	return nil
}

// capture is the part of a checkpoint that holds the writer lock.
// Compacting here keeps the deltas, and the process, from growing
// between checkpoints, and leaves the snapshots pure CSR, which the write
// streams without allocating. It bumps the hot and cold graphs'
// compaction counters: re-baseline their sum, so that the bump does not
// read as an engine-initiated compaction and kick another checkpoint. The
// cold graph is the cold fragment's. Rotating at
// the pinned sequence leaves every earlier segment covered by the image;
// until the checkpoint retires them, appends kick no other.
func (d *Durable) capture() (*persist.Image, error) {
	dep := d.dep
	dep.hc.Hot.Compact()
	dep.hc.Cold.Compact()
	for _, g := range dep.alloc.Graphs {
		g.Compact()
	}
	d.compactions.Store(dep.compactions())
	img := dep.capture(d.appliedSeq.Load())
	if err := d.log.Rotate(); err != nil {
		img.Close()
		return nil, err
	}
	d.writing.Store(true)
	return img, nil
}

// writeCheckpoint streams img to a temp file, fsyncs it, renames it over
// the previous checkpoint and fsyncs the directory, so the rename itself
// survives a power cut. A crash at any point leaves either the old or
// the new checkpoint intact, never a torn one. The temp file goes through
// the configured filesystem, the crash harness's fault seam.
func (d *Durable) writeCheckpoint(img *persist.Image) error {
	final := filepath.Join(d.cfg.Dir, checkpointFile)
	tmp := final + ".tmp"
	f, err := d.cfg.FS.Create(tmp)
	if err != nil {
		return fmt.Errorf("rdffrag: checkpoint: %w", err)
	}
	err = persist.Save(f, img)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err == nil {
		err = syncDir(d.cfg.Dir)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rdffrag: checkpoint: %w", err)
	}
	return nil
}

// shutdown is the clean path, run by Server.Close after the last update
// has drained: final checkpoint (which empties the replayable tail —
// this is what makes SIGTERM lossless even under Sync == "interval"),
// clean-shutdown marker, log closed.
func (d *Durable) shutdown() {
	d.closeOnce.Do(func() {
		close(d.stop)
		if d.srv != nil {
			<-d.done
		}
		if err := d.Checkpoint(); err == nil {
			writeCleanMarker(d.cfg.Dir, d.log.LastSeq())
		}
		d.log.Close()
	})
}

// walMetrics feeds the serve layer's metrics snapshot.
func (d *Durable) walMetrics() serve.WALMetrics {
	m := d.log.Metrics()
	return serve.WALMetrics{
		SyncPolicy:      d.pol.String(),
		Appends:         m.Appends,
		Fsyncs:          m.Fsyncs,
		AppendedBytes:   m.AppendedBytes,
		LiveBytes:       m.LiveBytes,
		Segments:        m.Segments,
		LastSeq:         m.LastSeq,
		CheckpointSeq:   d.checkpointSeq.Load(),
		Checkpoints:     d.checkpoints.Load(),
		ReplayedRecords: d.replayed,
		AppendP99:       m.AppendP99,
		FsyncP99:        m.FsyncP99,
	}
}

// CleanStart reports whether the last Recover found a clean-shutdown
// marker and an empty replay tail (restart skipped replay entirely).
func (d *Durable) CleanStart() bool { return d.cleanStart }

// ReplayedRecords is how many WAL records the last Recover applied.
func (d *Durable) ReplayedRecords() uint64 { return d.replayed }

// LastSeq is the newest WAL sequence number.
func (d *Durable) LastSeq() uint64 { return d.log.LastSeq() }

// CheckpointSeq is the WAL sequence the latest checkpoint covers.
func (d *Durable) CheckpointSeq() uint64 { return d.checkpointSeq.Load() }

// Checkpoints counts checkpoints written since this Durable opened.
func (d *Durable) Checkpoints() uint64 { return d.checkpoints.Load() }

// writeCleanMarker records "this directory was closed cleanly at WAL
// sequence seq"; fsynced, since its whole point is surviving the power
// going out right after shutdown.
func writeCleanMarker(dir string, seq uint64) error {
	path := filepath.Join(dir, cleanMarker)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "clean %d\n", seq)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = syncDir(dir)
	}
	return err
}

// readCleanMarker inverts writeCleanMarker.
func readCleanMarker(dir string) (seq uint64, ok bool) {
	b, err := os.ReadFile(filepath.Join(dir, cleanMarker))
	if err != nil {
		return 0, false
	}
	var s uint64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(b)), "clean %d", &s); err != nil {
		return 0, false
	}
	return s, true
}

// syncDir fsyncs a directory so a just-renamed or just-removed entry
// survives a crash.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}
