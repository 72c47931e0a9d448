package rdffrag

// Durability tests: bootstrap → update → abandon (simulated crash) →
// recover must reproduce the exact pre-crash query answers; checkpoints
// bound replay and retire covered WAL segments; a clean shutdown skips
// replay entirely; and a malformed update batch applies nothing and
// logs nothing.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdffrag/internal/rdf"
	"rdffrag/internal/wal"
)

func durableDeploy(t *testing.T) *Deployment {
	t.Helper()
	return deploySoak(t, 3, 40)
}

// bootstrapped opens cfg's data directory and bootstraps a durableDeploy
// deployment into it.
func bootstrapped(t *testing.T, cfg DurabilityConfig) (*Durable, *Deployment) {
	t.Helper()
	d, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	dep := durableDeploy(t)
	if err := d.Bootstrap(dep); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return d, dep
}

// recovered reopens cfg's data directory and recovers what it holds.
func recovered(t *testing.T, cfg DurabilityConfig) (*Durable, *Deployment) {
	t.Helper()
	d, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	dep, err := d.Recover(Config{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return d, dep
}

// durableUpdate generates batch i: a unique person chained into the soak
// schema, so every batch changes query answers detectably.
func durableUpdate(i int) string {
	return fmt.Sprintf("<U%d> <name> \"Update %d\" .\n<U%d> <interest> <I%d> .\n", i, i, i, i%5)
}

const durableProbe = `SELECT ?x ?n WHERE { ?x <name> ?n . ?x <interest> ?i . }`

func queryRows(t *testing.T, srv *Server, q string) []string {
	t.Helper()
	res, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	return sortedRows(res)
}

func TestDurableRecoverAfterAbandon(t *testing.T) {
	dir := t.TempDir()
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "always"})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})

	const batches = 12
	for i := 0; i < batches; i++ {
		res, err := srv.Update(context.Background(), durableUpdate(i))
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if res.Seq != uint64(i+1) {
			t.Fatalf("update %d: seq = %d, want %d (acks must carry the WAL seq)", i, res.Seq, i+1)
		}
	}
	// Abandon without Close: with sync=always every acked batch is on
	// stable storage, so recovery owes us all of them.

	d2, dep2 := recovered(t, DurabilityConfig{Dir: dir, Sync: "always"})
	if d2.ReplayedRecords() != batches {
		t.Fatalf("replayed %d records, want %d (checkpoint was at seq 0)", d2.ReplayedRecords(), batches)
	}
	if d2.CleanStart() {
		t.Fatal("CleanStart true after an abandoned (crashed) server")
	}
	// A served answer reads its text off the dictionary's renderings:
	// after the checkpoint restore and a replay that interned new terms,
	// each is still its decoded term's, and the answer is the model's.
	dict := dep2.db.graph.Dict
	for id, r := range dict.Rendered() {
		if want := dict.Decode(rdf.ID(id)).String(); r != want {
			t.Fatalf("ID %d renders as %s, decodes to %s", id, r, want)
		}
	}
	docs := []string{soakNT(40, 0)}
	for i := range batches {
		docs = append(docs, durableUpdate(i))
	}
	srv2 := dep2.StartServer(ServerConfig{Workers: 2, Durable: d2})
	defer srv2.Close()
	if got, want := queryRows(t, srv2, durableProbe), modelRows(t, modelOf(t, docs...), durableProbe); !slices.Equal(got, want) {
		t.Fatalf("recovered answers diverge from the model's:\ngot  %d rows\nwant %d rows", len(got), len(want))
	}
	// The recovered server keeps sequencing where the log left off.
	res, err := srv2.Update(context.Background(), durableUpdate(batches))
	if err != nil {
		t.Fatalf("post-recovery update: %v", err)
	}
	if res.Seq != batches+1 {
		t.Fatalf("post-recovery seq = %d, want %d", res.Seq, batches+1)
	}
}

func TestDurableCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	// A tiny checkpoint threshold: the background checkpointer must fire
	// mid-stream, advance the checkpoint seq and retire covered segments.
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "always", CheckpointBytes: 2 << 10, SegmentBytes: 1 << 10})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})

	const batches = 60
	for i := 0; i < batches; i++ {
		if _, err := srv.Update(context.Background(), durableUpdate(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	// Force one deterministic checkpoint so the assertion below doesn't
	// race the background one.
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if d.Checkpoints() == 0 || d.CheckpointSeq() == 0 {
		t.Fatalf("no checkpoint recorded (checkpoints=%d seq=%d)", d.Checkpoints(), d.CheckpointSeq())
	}
	oracle := queryRows(t, srv, durableProbe)
	ckptSeq := d.CheckpointSeq()

	d2, dep2 := recovered(t, DurabilityConfig{Dir: dir, Sync: "always"})
	// Replay is bounded by the checkpoint: exactly lastSeq − ckptSeq
	// records (the metrics reconciliation the crash soak also checks).
	if want := uint64(batches) - ckptSeq; d2.ReplayedRecords() != want {
		t.Fatalf("replayed %d records, want %d (checkpoint at %d of %d)", d2.ReplayedRecords(), want, ckptSeq, batches)
	}
	srv2 := dep2.StartServer(ServerConfig{Workers: 2, Durable: d2})
	defer srv2.Close()
	if got := queryRows(t, srv2, durableProbe); strings.Join(got, "\n") != strings.Join(oracle, "\n") {
		t.Fatalf("recovered answers diverge after checkpointed recovery")
	}
}

// gatedFS holds the first write to a checkpoint's temp file, once armed,
// until release is closed, so a test can act while a checkpoint is in its
// off-lock write. Everything else goes straight through.
type gatedFS struct {
	wal.FS
	armed            atomic.Bool
	started, release chan struct{}
}

func (g *gatedFS) Create(path string) (wal.File, error) {
	f, err := g.FS.Create(path)
	if err != nil || filepath.Base(path) != checkpointFile+".tmp" || !g.armed.Swap(false) {
		return f, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	wal.File
	fs   *gatedFS
	once sync.Once
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.once.Do(func() {
		close(f.fs.started)
		<-f.fs.release
	})
	return f.File.Write(p)
}

// TestCheckpointWritesOffTheWriterLock: a checkpoint holds the writer
// lock only to compact, pin and rotate. It leaves no graph carrying a
// delta, and while it is writing the image an update is acknowledged;
// recovery then starts from the checkpoint's sequence and replays that
// update.
func TestCheckpointWritesOffTheWriterLock(t *testing.T) {
	dir := t.TempDir()
	fs := &gatedFS{FS: wal.OS(), started: make(chan struct{}), release: make(chan struct{})}
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "always", FS: fs, CheckpointBytes: 1 << 30})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})
	const batches = 6
	for i := 0; i < batches; i++ {
		if _, err := srv.Update(context.Background(), durableUpdate(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	graphs := append([]*rdf.Graph{dep.hc.Hot, dep.hc.Cold}, dep.alloc.Graphs...)
	if dep.hc.Hot.DeltaLen() == 0 {
		t.Fatal("setup: the updates left no delta")
	}

	fs.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- d.Checkpoint() }()
	<-fs.started
	for i, g := range graphs {
		if g.DeltaLen() != 0 {
			t.Errorf("graph %d carries a %d-op delta after the checkpoint's capture", i, g.DeltaLen())
		}
	}
	acked := make(chan uint64, 1)
	go func() {
		res, err := srv.Update(context.Background(), durableUpdate(batches))
		if err != nil {
			t.Errorf("update during the checkpoint: %v", err)
		}
		acked <- res.Seq
	}()
	select {
	case seq := <-acked:
		if seq != batches+1 {
			t.Fatalf("update during the checkpoint acknowledged at seq %d, want %d", seq, batches+1)
		}
	case <-time.After(10 * time.Second):
		close(fs.release)
		t.Fatal("an update waited for the checkpoint's write: the write holds the writer lock")
	}
	close(fs.release)
	if err := <-done; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if d.CheckpointSeq() != batches {
		t.Fatalf("checkpoint seq %d, want the %d captured", d.CheckpointSeq(), batches)
	}
	oracle := queryRows(t, srv, durableProbe)

	d2, dep2 := recovered(t, DurabilityConfig{Dir: dir, Sync: "always"})
	if d2.CheckpointSeq() != batches || d2.ReplayedRecords() != 1 {
		t.Fatalf("recovered from checkpoint seq %d replaying %d records, want %d and 1", d2.CheckpointSeq(), d2.ReplayedRecords(), batches)
	}
	srv2 := dep2.StartServer(ServerConfig{Workers: 2, Durable: d2})
	defer srv2.Close()
	if got := queryRows(t, srv2, durableProbe); strings.Join(got, "\n") != strings.Join(oracle, "\n") {
		t.Fatalf("recovered answers diverge: %d rows, want %d", len(got), len(oracle))
	}
}

func TestDurableCleanShutdownSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	// sync=interval: acks may run ahead of the disk — the graceful-close
	// path must still lose nothing (final checkpoint + fsync + marker).
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "interval"})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})
	for i := 0; i < 8; i++ {
		if _, err := srv.Update(context.Background(), durableUpdate(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	oracle := queryRows(t, srv, durableProbe)
	srv.Close()

	d2, dep2 := recovered(t, DurabilityConfig{Dir: dir, Sync: "interval"})
	if !d2.CleanStart() {
		t.Fatal("CleanStart false after a graceful Close")
	}
	if d2.ReplayedRecords() != 0 {
		t.Fatalf("replayed %d records after clean shutdown, want 0", d2.ReplayedRecords())
	}
	srv2 := dep2.StartServer(ServerConfig{Workers: 2, Durable: d2})
	defer srv2.Close()
	if got := queryRows(t, srv2, durableProbe); strings.Join(got, "\n") != strings.Join(oracle, "\n") {
		t.Fatal("clean shutdown lost acknowledged updates under sync=interval")
	}
}

// TestUpdateAtomicityOnMalformedBatch is the regression test for partial
// application: a batch whose parse fails midway must apply none of its
// triples and must not write a WAL record (a rejected batch replayed at
// recovery would resurrect the rejection as state).
func TestUpdateAtomicityOnMalformedBatch(t *testing.T) {
	dir := t.TempDir()
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "always"})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})
	defer srv.Close()

	if _, err := srv.Update(context.Background(), durableUpdate(0)); err != nil {
		t.Fatalf("valid update: %v", err)
	}
	before := queryRows(t, srv, durableProbe)
	beforeTriples := dep.hc.NumTriples()
	beforeSeq := d.LastSeq()

	// Two valid lines, then garbage: nothing from this batch may land.
	bad := durableUpdate(1) + "<U999> <name> not-a-term .\n"
	if _, err := srv.Update(context.Background(), bad); err == nil {
		t.Fatal("malformed batch accepted")
	}
	if got := dep.hc.NumTriples(); got != beforeTriples {
		t.Fatalf("malformed batch partially applied: %d -> %d triples", beforeTriples, got)
	}
	if after := queryRows(t, srv, durableProbe); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatal("malformed batch changed query answers")
	}
	if d.LastSeq() != beforeSeq {
		t.Fatalf("malformed batch logged: WAL seq %d -> %d", beforeSeq, d.LastSeq())
	}
	// The server keeps accepting valid batches afterwards.
	res, err := srv.Update(context.Background(), durableUpdate(2))
	if err != nil {
		t.Fatalf("post-rejection update: %v", err)
	}
	if res.Seq != beforeSeq+1 {
		t.Fatalf("post-rejection seq = %d, want %d", res.Seq, beforeSeq+1)
	}
}

// TestServerWALMetricsExposed: a durable server's metrics carry the WAL
// section; a plain server's don't.
func TestServerWALMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "always"})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})
	defer srv.Close()
	if _, err := srv.Update(context.Background(), durableUpdate(0)); err != nil {
		t.Fatalf("update: %v", err)
	}
	m := srv.Metrics()
	if m.WAL == nil {
		t.Fatal("durable server metrics missing WAL section")
	}
	if m.WAL.SyncPolicy != "always" || m.WAL.Appends == 0 || m.WAL.Fsyncs == 0 || m.WAL.LastSeq != 1 {
		t.Fatalf("WAL metrics off: %+v", *m.WAL)
	}

	plain := durableDeploy(t).StartServer(ServerConfig{Workers: 2})
	defer plain.Close()
	if plain.Metrics().WAL != nil {
		t.Fatal("non-durable server grew a WAL metrics section")
	}
}

// TestDurableRejectsForeignWAL: recovering a checkpoint against a WAL
// from a different deployment must fail the dictionary fingerprint
// check, not replay garbage.
func TestDurableRejectsForeignWAL(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for i, dir := range []string{dirA, dirB} {
		d, err := OpenDurable(DurabilityConfig{Dir: dir, Sync: "always"})
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		var dep *Deployment
		if i == 0 {
			dep = durableDeploy(t)
		} else {
			// A different deployment: different data → different dict.
			db := Open(Config{Sites: 2, MinSupport: 0.2})
			if _, err := db.LoadNTriples(strings.NewReader(soakNT(25, 500))); err != nil {
				t.Fatal(err)
			}
			dep, err = db.Deploy(soakWorkload)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Bootstrap(dep); err != nil {
			t.Fatalf("Bootstrap: %v", err)
		}
		// Abandon (no Close): leave a non-empty replay tail behind.
		srv := dep.StartServer(ServerConfig{Workers: 1, Durable: d})
		if _, err := srv.Update(context.Background(), durableUpdate(i)); err != nil {
			t.Fatalf("update: %v", err)
		}
	}

	// Splice B's WAL behind A's checkpoint.
	if err := copyDir(t, dirB+"/wal", dirA+"/wal"); err != nil {
		t.Fatalf("splice: %v", err)
	}
	d, err := OpenDurable(DurabilityConfig{Dir: dirA, Sync: "always"})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if _, err := d.Recover(Config{}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Recover accepted a foreign WAL (err=%v)", err)
	}
}

// copyDir copies every regular file of src into dst, overwriting.
func copyDir(t *testing.T, src, dst string) error {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
