package rdffrag

// TTL expiry is deployment state: the latest write of a triple decides its
// deadline, the WAL record and the checkpoint carry it, and a sweep is one
// more batch to the readers that pinned a view before it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rdffrag/internal/cluster"
)

// scheduleOf renders a deployment's TTL schedule by triple text, so the
// schedules of deployments with different dictionaries compare.
func scheduleOf(dep *Deployment) map[string]time.Time {
	d := dep.db.graph.Dict
	out := map[string]time.Time{}
	for t, at := range dep.expiry {
		out[fmt.Sprintf("%s %s %s", d.Decode(t.S), d.Decode(t.P), d.Decode(t.O))] = at
	}
	return out
}

// TestTTLLatestWriteWins: re-stamping a triple extends its deadline, a
// delete cancels it, and a re-insert without a TTL makes the triple
// permanent. The schedule is the same live, after a recovery that replays
// the WAL and after one that loads a checkpoint, the longest TTL a Go
// duration holds included; sweeps then expire exactly the re-stamped
// triple, at its latest deadline.
func TestTTLLatestWriteWins(t *testing.T) {
	dir := t.TempDir()
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "always"})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d, SweepInterval: -1})

	doc := func(k string) string { return fmt.Sprintf("<TTL%s> <name> \"%s\" .\n", k, k) }
	ctx := context.Background()
	start := time.Now()
	for _, w := range []struct {
		del, ins string
		ttl      time.Duration
	}{
		{"", doc("Restamped"), time.Hour},
		{"", doc("Restamped"), 3 * time.Hour},
		{"", doc("Deleted"), time.Hour},
		{doc("Deleted"), "", 0},
		{"", doc("Permanent"), time.Hour},
		{"", doc("Permanent"), 0},
		{"", doc("Far"), time.Duration(math.MaxInt64)},
	} {
		if _, err := srv.Overwrite(ctx, w.del, w.ins, w.ttl); err != nil {
			t.Fatalf("write %+v: %v", w, err)
		}
	}
	live := scheduleOf(dep)
	restamped, far := `<TTLRestamped> <name> "Restamped"`, `<TTLFar> <name> "Far"`
	if len(live) != 2 || live[restamped].Before(start.Add(3*time.Hour)) || live[restamped].After(time.Now().Add(3*time.Hour)) {
		t.Fatalf("live schedule %v: want the re-stamped triple 3h out and the far one, nothing else", live)
	}
	if !live[far].After(time.Now().AddDate(290, 0, 0)) {
		t.Fatalf("the longest TTL's deadline %v is not centuries out", live[far])
	}

	present := func(srv *Server, k string) bool {
		return len(queryRows(t, srv, fmt.Sprintf(`SELECT ?n WHERE { <TTL%s> <name> ?n . }`, k))) == 1
	}
	same := func(phase string, dep *Deployment) {
		t.Helper()
		got := scheduleOf(dep)
		for k, at := range live {
			if !got[k].Equal(at) {
				t.Fatalf("%s: %s deadline %v, want %v", phase, k, got[k], at)
			}
		}
		if len(got) != len(live) {
			t.Fatalf("%s: schedule %v, want %v", phase, got, live)
		}
	}
	// Abandon (no Close): recovery replays every record.
	d2, dep2 := recovered(t, DurabilityConfig{Dir: dir, Sync: "always"})
	if d2.ReplayedRecords() != 7 {
		t.Fatalf("replayed %d records, want 7", d2.ReplayedRecords())
	}
	same("after WAL replay", dep2)
	srv2 := dep2.StartServer(ServerConfig{Workers: 2, Durable: d2, SweepInterval: -1})
	if n := srv2.inner.Sweep(start.Add(2 * time.Hour)); n != 0 {
		t.Fatalf("sweep 2h in after WAL replay removed %d triples, want 0", n)
	}
	// A clean close checkpoints: the next recovery loads the schedule from
	// the image and replays nothing.
	srv2.Close()
	d3, dep3 := recovered(t, DurabilityConfig{Dir: dir, Sync: "always"})
	if !d3.CleanStart() || d3.ReplayedRecords() != 0 {
		t.Fatalf("recovery after a clean close: clean=%v replayed=%d", d3.CleanStart(), d3.ReplayedRecords())
	}
	same("after checkpoint load", dep3)
	srv3 := dep3.StartServer(ServerConfig{Workers: 2, Durable: d3, SweepInterval: -1})
	defer srv3.Close()
	if n := srv3.inner.Sweep(start.Add(2 * time.Hour)); n != 0 {
		t.Fatalf("sweep 2h in after checkpoint load removed %d triples, want 0", n)
	}
	if n := srv3.inner.Sweep(start.Add(4 * time.Hour)); n != 1 {
		t.Fatalf("sweep 4h in removed %d triples, want the re-stamped one", n)
	}
	for k, want := range map[string]bool{"Restamped": false, "Deleted": false, "Permanent": true, "Far": true} {
		if present(srv3, k) != want {
			t.Errorf("after the sweeps, TTL%s present = %v, want %v", k, !want, want)
		}
	}
	if got := scheduleOf(dep3); len(got) != 1 || !got[far].Equal(live[far]) {
		t.Fatalf("schedule after the sweeps %v, want the far triple only", got)
	}
}

// TestPinnedQueryAcrossSweep: a query that pinned its view before a sweep
// still returns the triples the sweep expires, and a query admitted after
// the sweep does not — to readers, a sweep is one more batch.
func TestPinnedQueryAcrossSweep(t *testing.T) {
	dep := deploySoak(t, 3, 30)
	// Every site evaluation waits, so the first query stays in flight,
	// its view pinned, while the sweep lands.
	dep.cluster.Latency = cluster.Delay{PerMessage: 100 * time.Millisecond}
	srv := dep.StartServer(ServerConfig{Workers: 2, SweepInterval: -1})
	defer srv.Close()
	ctx := context.Background()
	if _, err := srv.UpdateTTL(ctx, owDoc(1), time.Hour); err != nil {
		t.Fatalf("UpdateTTL: %v", err)
	}

	type answer struct {
		rows []string
		err  error
	}
	pinned := make(chan answer, 1)
	idle := srv.Metrics().PinnedSnapshots
	go func() {
		res, err := srv.Query(ctx, owProbe)
		if err != nil {
			pinned <- answer{err: err}
			return
		}
		pinned <- answer{rows: sortedRows(res)}
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Metrics().PinnedSnapshots <= idle; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first query never pinned a view")
		}
	}
	if n := srv.inner.Sweep(time.Now().Add(2 * time.Hour)); n != 2 {
		t.Fatalf("Sweep removed %d triples, want 2", n)
	}
	if rows := queryRows(t, srv, owProbe); len(rows) != 0 {
		t.Fatalf("a query admitted after the sweep returned %v, want nothing", rows)
	}
	got := <-pinned
	if got.err != nil || len(got.rows) != 1 || !strings.Contains(got.rows[0], "ow v1") {
		t.Fatalf("the query pinned before the sweep returned %v (err %v), want the expired v1 row", got.rows, got.err)
	}
}

// TestTTLSweeperBesideWritersAndCheckpoints: writers stamping triples, the
// background sweeper, checkpoints and saves all reach the schedule at
// once (run it under -race); once every deadline has passed, the sweeper
// has emptied the schedule and every stamped triple is gone.
func TestTTLSweeperBesideWritersAndCheckpoints(t *testing.T) {
	d, dep := bootstrapped(t, DurabilityConfig{Dir: t.TempDir(), Sync: "none", CheckpointBytes: 4 << 10})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d, SweepInterval: time.Millisecond})
	defer srv.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				doc := fmt.Sprintf("<TTLW%dN%d> <name> \"stamped\" .\n", w, i)
				if _, err := srv.UpdateTTL(ctx, doc, time.Duration(1+i%5)*time.Millisecond); err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 5 {
			if err := srv.Save(io.Discard); err != nil {
				t.Errorf("Save: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	// The appends kick checkpoints that run on their own goroutine: one
	// may still be writing when the writers return.
	for deadline := time.Now().Add(10 * time.Second); srv.Metrics().WAL.Checkpoints == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint ran beside the writers")
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var pending int
		srv.inner.Exclusive(func() { pending = len(dep.expiry) })
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d triples still pending 10s after their deadlines", pending)
		}
	}
	if rows := queryRows(t, srv, `SELECT ?x WHERE { ?x <name> "stamped" . }`); len(rows) != 0 {
		t.Fatalf("%d stamped triples outlived the sweeps", len(rows))
	}
}

// TestRemoteSitesSweepNothing: a server with remote sites refuses every
// batch, and a sweep is one. A loaded deployment holding a triple past
// its deadline, its sites served by another, sweeps nothing and goes on
// answering the triple, which the sites still hold.
func TestRemoteSitesSweepNothing(t *testing.T) {
	srv := deploySoak(t, 3, 30).StartServer(ServerConfig{Workers: 2, SweepInterval: -1})
	if _, err := srv.UpdateTTL(context.Background(), owDoc(1), time.Hour); err != nil {
		t.Fatalf("UpdateTTL: %v", err)
	}
	var img bytes.Buffer
	err := srv.Save(&img)
	srv.Close()
	host, err2 := LoadDeployment(bytes.NewReader(img.Bytes()))
	ctl, err3 := LoadDeployment(bytes.NewReader(img.Bytes()))
	if err := errors.Join(err, err2, err3); err != nil {
		t.Fatal(err)
	}
	site := httptest.NewServer(host.SiteHandler(SiteConfig{}))
	defer site.Close()
	srv = ctl.StartServer(ServerConfig{Workers: 2, Remote: RemoteConfig{Sites: allRemote(ctl, site.URL)}})
	defer srv.Close()
	if n := srv.inner.Sweep(time.Now().Add(2 * time.Hour)); n != 0 || len(ctl.expiry) != 2 {
		t.Fatalf("a server with remote sites swept %d triples, left %d deadlines pending", n, len(ctl.expiry))
	}
	if rows := queryRows(t, srv, owProbe); len(rows) != 1 || !strings.Contains(rows[0], "ow v1") {
		t.Fatalf("after the sweep the expired triple answers %v, want the v1 row", rows)
	}
}
