package rdffrag

// Durable updates: every acknowledged update batch — insert or delete,
// told apart by the WAL record's kind byte — is appended to a
// write-ahead log before it is applied, and a background checkpointer
// periodically folds the log into a persist.Save snapshot stamped with
// the last applied WAL sequence number. Restart loads the latest
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
	// FS overrides the WAL's filesystem — the fault-injection seam the
	// crash harness uses (wal.NewChaosFS). Nil means the real
	// filesystem. Checkpoint snapshots always use the real filesystem:
	// their tmp+fsync+rename dance is atomic against crashes by
	// construction, so the interesting fault surface is the log tail.
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
	srv *Server // set by StartServer; checkpoints run under its data lock

	appliedSeq    atomic.Uint64 // newest WAL seq applied to the deployment
	checkpointSeq atomic.Uint64 // WAL seq the latest checkpoint covers
	checkpoints   atomic.Uint64
	compactions   atomic.Uint64 // global-graph compaction count at last checkpoint kick
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
	// The marker only certifies the state at the moment it was written;
	// any progress past this point invalidates it.
	os.Remove(filepath.Join(d.cfg.Dir, cleanMarker))

	f, err := os.Open(filepath.Join(d.cfg.Dir, checkpointFile))
	if err != nil {
		return nil, fmt.Errorf("rdffrag: no checkpoint in %s (bootstrap the deployment first): %w", d.cfg.Dir, err)
	}
	dep, err := LoadDeployment(f, cfg)
	f.Close()
	if err != nil {
		return nil, err
	}
	base := dep.walSeq
	d.appliedSeq.Store(base)
	d.checkpointSeq.Store(base)
	if err := d.openLog(dep); err != nil {
		return nil, err
	}

	// Replay the tail. Segment headers whose dictionary stamp falls
	// inside the checkpoint's dictionary are verified against it — a
	// WAL from a different deployment fails here instead of replaying
	// garbage. Stamps past the checkpoint length are unverifiable: the
	// original dictionary also interned ad-hoc query constants the log
	// never carries, so the recovered dictionary legitimately diverges
	// beyond the data prefix (which is why records log term text, not
	// IDs).
	dict := dep.db.graph.Dict
	baseLen := dict.Len()
	err = d.log.Replay(base, func(segLen int, segFP uint64) error {
		if segLen <= baseLen && dict.Fingerprint(segLen) != segFP {
			return fmt.Errorf("rdffrag: WAL segment dictionary fingerprint mismatch: log and checkpoint are from different deployments")
		}
		return nil
	}, func(rec wal.Record) error {
		b, err := decodeWALRecord(dict, rec)
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
	d.compactions.Store(dep.db.graph.Compactions())
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
	d.dep = dep
	if err := d.writeCheckpoint(0); err != nil {
		d.dep = nil
		return err
	}
	if err := d.openLog(dep); err != nil {
		d.dep = nil
		return err
	}
	d.compactions.Store(dep.db.graph.Compactions())
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

// decodeWALRecord inverts encodeWALPayload: it parses one recovered
// record back into the batch applyDurable logged. Deletes (and the
// delete side of overwrites) replay through Encode (interning), not
// Lookup: the batch's terms were in the dictionary when the record was
// logged, so post-checkpoint they resolve to the same triples; a term
// the recovered dictionary genuinely lacks yields a triple that was
// never present, and deleting it is a no-op.
func decodeWALRecord(dict *rdf.Dict, rec wal.Record) (serve.Batch, error) {
	switch rec.Kind {
	case wal.KindDelete:
		ts, err := parseUpdateBatch(dict, string(rec.Payload))
		if err != nil {
			return serve.Batch{}, err
		}
		return serve.Batch{Op: serve.OpDelete, Del: ts}, nil
	case wal.KindOverwrite:
		delDoc, insDoc, err := splitOverwritePayload(rec.Payload)
		if err != nil {
			return serve.Batch{}, err
		}
		del, err := parseTripleSet(dict, string(delDoc))
		if err != nil {
			return serve.Batch{}, err
		}
		ins, err := parseTripleSet(dict, string(insDoc))
		if err != nil {
			return serve.Batch{}, err
		}
		if len(del) == 0 && len(ins) == 0 {
			return serve.Batch{}, fmt.Errorf("rdffrag: overwrite record carried no triples")
		}
		return serve.Batch{Op: serve.OpOverwrite, Del: del, Ins: ins}, nil
	default:
		ts, err := parseUpdateBatch(dict, string(rec.Payload))
		if err != nil {
			return serve.Batch{}, err
		}
		return serve.Batch{Op: serve.OpInsert, Ins: ts}, nil
	}
}

// encodeWALPayload renders one batch into its WAL record: the kind byte
// carries the operation and the payload the triple text. An overwrite's
// two sides share a single record — a single CRC frame — which is the
// whole atomicity story: a crash either persists the frame (recovery
// replays delete-set and insert-set together) or tears it (recovery
// truncates the frame whole), never half.
func encodeWALPayload(dict *rdf.Dict, b serve.Batch) (wal.Kind, []byte) {
	switch b.Op {
	case serve.OpDelete:
		return wal.KindDelete, encodeUpdateBatch(dict, b.Del)
	case serve.OpOverwrite:
		return wal.KindOverwrite, encodeOverwritePayload(
			encodeUpdateBatch(dict, b.Del), encodeUpdateBatch(dict, b.Ins))
	default:
		return wal.KindInsert, encodeUpdateBatch(dict, b.Ins)
	}
}

// encodeOverwritePayload frames an overwrite record's payload:
// uint32 little-endian len(deleteDoc) | deleteDoc | insertDoc.
func encodeOverwritePayload(delDoc, insDoc []byte) []byte {
	buf := make([]byte, 4, 4+len(delDoc)+len(insDoc))
	binary.LittleEndian.PutUint32(buf, uint32(len(delDoc)))
	buf = append(buf, delDoc...)
	return append(buf, insDoc...)
}

// splitOverwritePayload inverts encodeOverwritePayload.
func splitOverwritePayload(p []byte) (delDoc, insDoc []byte, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("rdffrag: overwrite payload too short (%d bytes)", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n < 0 || 4+n > len(p) {
		return nil, nil, fmt.Errorf("rdffrag: overwrite payload delete-doc length %d exceeds payload", n)
	}
	return p[4 : 4+n], p[4+n:], nil
}

// applyDurable is the serve-layer Apply sink of a durable deployment:
// WAL append first (under SyncAlways the fsync happens inside, so a
// batch is on stable storage before the caller can ack it), then the
// normal in-memory apply. The record kind carries the operation, so
// replay re-applies deletes as deletes and overwrites as one atomic
// swap. The caller holds the server's writer mutex, so append order,
// sequence order and apply order all agree. A failed append rejects the
// batch before anything mutates.
func (d *Durable) applyDurable(b serve.Batch) (serve.UpdateStats, error) {
	kind, payload := encodeWALPayload(d.dep.db.graph.Dict, b)
	seq, err := d.log.Append(kind, payload)
	if err != nil {
		return serve.UpdateStats{}, fmt.Errorf("rdffrag: %w", err)
	}
	st := d.dep.applyBatch(b)
	st.Seq = seq
	d.appliedSeq.Store(seq)
	// Kick the checkpointer when the log has grown past the configured
	// bound, or when the global graph compacted (the snapshot is about
	// to be cheap to write and the delta overlay is empty anyway).
	if d.log.Size() >= d.cfg.CheckpointBytes || st.Compactions > d.compactions.Load() {
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
// last applied WAL sequence, atomically (tmp + fsync + rename), then
// rotates the log and retires the segments the snapshot covers. Runs
// under the server's exclusive data lock when one is attached, so the
// state it captures is a consistent batch boundary.
func (d *Durable) Checkpoint() error {
	var err error
	run := func() { err = d.checkpointLocked() }
	if d.srv != nil {
		d.srv.inner.Exclusive(run)
	} else {
		run()
	}
	return err
}

func (d *Durable) checkpointLocked() error {
	seq := d.appliedSeq.Load()
	if err := d.writeCheckpoint(seq); err != nil {
		return err
	}
	// The snapshot's compact-on-save bumped the graph's compaction
	// counter; re-baseline so that bump doesn't read as an
	// engine-initiated compaction and re-trigger a checkpoint.
	d.compactions.Store(d.dep.db.graph.Compactions())
	// Crash ordering: the checkpoint is durable before any log segment
	// is removed, and replay filters on the sequence stamp — a crash
	// between rename and retire just replays zero records from the
	// not-yet-retired segments.
	if err := d.log.Rotate(); err != nil {
		return err
	}
	if err := d.log.Retire(seq); err != nil {
		return err
	}
	d.checkpointSeq.Store(seq)
	d.checkpoints.Add(1)
	return nil
}

// writeCheckpoint persists the deployment snapshot atomically: written
// to a temp file, fsynced, renamed over the previous checkpoint, with
// the directory fsynced so the rename itself survives a power cut. A
// crash at any point leaves either the old or the new checkpoint
// intact, never a torn one.
func (d *Durable) writeCheckpoint(seq uint64) error {
	final := filepath.Join(d.cfg.Dir, checkpointFile)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("rdffrag: checkpoint: %w", err)
	}
	err = d.dep.saveState(f, seq)
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
