package rdffrag

// Multi-process deployment test: fragment hosts run as real `rdffrag
// site` OS processes built from the actual binary, the control site
// reaches them over TCP, and a SIGSTOP or a SIGKILL mid-run degrades
// queries to flagged partial results until the site process is
// continued, or restarted on the same port. This is the closest harness
// to production: separate dictionaries rebuilt from the same files, real
// sockets, real process death.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rdffrag/internal/rdf"
	"rdffrag/internal/watdiv"
)

// startSiteProc spawns `rdffrag site` on addr and waits for its
// machine-readable listen line, returning the resolved host:port. flags
// come after the defaults (vertical, 2 sites, minsup 0.2) and override
// them.
func startSiteProc(t *testing.T, bin, data, wl, addr string, flags ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"site",
		"-data", data, "-workload", wl,
		"-strategy", "vertical", "-sites", "2", "-minsup", "0.2",
		"-addr", addr}, flags...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start site process: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	got := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "site listening on ") {
				got <- strings.Fields(line)[3]
				break
			}
		}
		io.Copy(io.Discard, stdout) // keep draining so the child never blocks
	}()
	select {
	case resolved := <-got:
		return cmd, resolved
	case <-time.After(60 * time.Second):
		t.Fatal("site process did not report a listen address in time")
		return nil, ""
	}
}

// waitStopped waits until every thread of process pid is stopped. SIGSTOP
// is delivered asynchronously: a query sent right after the signal may be
// answered before the process stops.
func waitStopped(t *testing.T, pid int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/stat", pid))
		stopped := len(stats) > 0
		for _, path := range stats {
			b, err := os.ReadFile(path)
			// The state follows the parenthesized command name.
			i := bytes.LastIndexByte(b, ')')
			stopped = stopped && err == nil && i >= 0 && i+2 < len(b) && b[i+2] == 'T'
		}
		if stopped {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("process %d not stopped 5s after SIGSTOP", pid)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMultiProcessSites(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rdffrag")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rdffrag").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// The fragment host rebuilds its deployment from the same files as
	// the control site; the deterministic pipeline makes the
	// dictionaries agree, which the row results below prove end to end.
	data := soakNT(40, 0)
	wl := strings.Join(soakWorkload, "\n---\n")
	dataPath := filepath.Join(tmp, "data.nt")
	wlPath := filepath.Join(tmp, "workload.rq")
	if err := os.WriteFile(dataPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(wl), 0o644); err != nil {
		t.Fatal(err)
	}

	db := Open(Config{Sites: 2, MinSupport: 0.2})
	if _, err := db.LoadNTriples(strings.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	dep, err := db.Deploy(soakWorkload)
	if err != nil {
		t.Fatal(err)
	}
	q := soakWorkload[0]
	oracle, err := dep.Query(q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	proc, addr := startSiteProc(t, bin, dataPath, wlPath, "127.0.0.1:0")
	const frameTimeout = 500 * time.Millisecond
	srv := dep.StartServer(ServerConfig{
		Remote: RemoteConfig{
			Sites: allRemote(dep, "http://"+addr), Retries: 2, Backoff: 5 * time.Millisecond,
			FrameTimeout: frameTimeout, BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond,
			PartialResults: true,
		},
	})
	defer srv.Close()

	// Healthy: answers over the wire match the in-process oracle — the
	// two processes' dictionaries agree.
	res, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query via site process: %v", err)
	}
	if res.Stats.Partial {
		t.Fatal("query flagged partial with the site process healthy")
	}
	if !sameRows(res.Rows, oracle.Rows) {
		t.Fatalf("cross-process rows %v != oracle %v", res.Rows, oracle.Rows)
	}

	// SIGSTOP the site process: the kernel still accepts its connections
	// and requests, and nothing answers them. The watchdog, which runs
	// from the request, cuts each attempt after frameTimeout, so the
	// query comes back partial within its retries instead of waiting out
	// its deadline, and the failures open the breaker.
	if err := proc.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	waitStopped(t, proc.Process.Pid)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	start := time.Now()
	res, err = srv.Query(ctx, q)
	cancel()
	if err != nil {
		t.Fatalf("query with the site process stopped: %v (after %v)", err, time.Since(start))
	}
	elapsed := time.Since(start)
	if !res.Stats.Partial || elapsed > 5*time.Second {
		t.Fatalf("query with the site process stopped: partial %v after %v, want partial within a few frame timeouts", res.Stats.Partial, elapsed)
	}
	t.Logf("partial answer %v after SIGSTOP", elapsed)
	stoppedOpen := false
	for _, sm := range srv.Metrics().Sites {
		stoppedOpen = stoppedOpen || sm.BreakerState == "open"
	}
	if !stoppedOpen {
		t.Fatalf("no breaker open with the site process stopped: %+v", srv.Metrics().Sites)
	}

	// SIGCONT: after the cooldown a probe closes the breaker and answers
	// equal the oracle again.
	if err := proc.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err = srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query after SIGCONT: %v", err)
		}
		if !res.Stats.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queries still partial after the site process was continued")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !sameRows(res.Rows, oracle.Rows) {
		t.Fatalf("rows after SIGCONT %v != oracle %v", res.Rows, oracle.Rows)
	}
	var opensBefore uint64
	for _, sm := range srv.Metrics().Sites {
		opensBefore += sm.BreakerOpens
	}

	// SIGKILL the site process: degraded, flagged partial.
	if err := proc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc.Wait()
	sawPartial := false
	for i := 0; i < 3; i++ {
		res, err = srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("degraded query %d: %v", i, err)
		}
		sawPartial = sawPartial || res.Stats.Partial
	}
	if !sawPartial {
		t.Fatal("no query flagged partial after the site process was killed")
	}

	// Restart on the same port: the breaker probes, closes, and answers
	// come back complete.
	if _, addr2 := startSiteProc(t, bin, dataPath, wlPath, addr); addr2 != addr {
		t.Fatalf("restarted site on %s, want %s", addr2, addr)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		res, err = srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("recovery query: %v", err)
		}
		if !res.Stats.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queries still partial after site process restart")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !sameRows(res.Rows, oracle.Rows) {
		t.Errorf("post-restart rows %v != oracle %v", res.Rows, oracle.Rows)
	}
	var opens uint64
	for _, sm := range srv.Metrics().Sites {
		opens += sm.BreakerOpens
		if sm.BreakerState == "open" {
			t.Errorf("site %d breaker still open after recovery", sm.Site)
		}
	}
	if opens == opensBefore {
		t.Error("no breaker opened across the kill/restart cycle")
	}
}

// TestMultiProcessSitesRefuseUpdates: a real `rdffrag serve -site …`
// control in front of a real `rdffrag site` process refuses every update
// method with 501 and a message naming -site — the site process would
// never see the batch — and the refused batches change no answer.
func TestMultiProcessSitesRefuseUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rdffrag")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rdffrag").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataPath := filepath.Join(tmp, "data.nt")
	wlPath := filepath.Join(tmp, "workload.rq")
	if err := os.WriteFile(dataPath, []byte(soakNT(40, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(soakWorkload, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, siteAddr := startSiteProc(t, bin, dataPath, wlPath, "127.0.0.1:0")
	ctrl := startServeProc(t, bin, "", "-data", dataPath, "-workload", wlPath,
		"-strategy", "vertical", "-sites", "2", "-minsup", "0.2",
		"-site", "0=http://"+siteAddr, "-site", "1=http://"+siteAddr)

	rows := func() string {
		resp, err := http.Post(ctrl.url("/query?format=csv"), "application/sparql-query", strings.NewReader(soakWorkload[0]))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query: HTTP %d, %v: %s", resp.StatusCode, err, body)
		}
		return string(body)
	}
	before := rows()
	person := "<P90> <name> \"Person 90\" .\n<P90> <interest> <I0> .\n"
	for _, tc := range []struct{ method, body string }{
		{http.MethodPost, person},
		{http.MethodPut, "---\n" + person},
		{http.MethodDelete, "<P1> <name> \"Person 1\" .\n"},
	} {
		req, err := http.NewRequest(tc.method, ctrl.url("/update"), strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s /update: %v", tc.method, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented || !strings.Contains(string(msg), "-site") {
			t.Errorf("%s /update with remote sites: HTTP %d %q, want 501 naming -site", tc.method, resp.StatusCode, msg)
		}
	}
	if after := rows(); after != before {
		t.Errorf("answers moved after refused updates:\n%s\nwant\n%s", after, before)
	}
}

// TestMultiProcessSitesHorizontal: under horizontal fragmentation the
// control process and a site process, each mining and fragmenting the
// same files on its own, must cut every pattern by the same minterms —
// the control routes a query to fragment IDs and prunes by its own
// minterm table, and the site answers from whatever it built under those
// IDs. Every site is served by the other process, so each of a few
// hundred constant-carrying template queries is answered from the site
// process's fragments and compared with the control's own.
func TestMultiProcessSitesHorizontal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rdffrag")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rdffrag").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	ds := watdiv.Generate(watdiv.Options{Triples: 20000, Seed: 1})
	var data bytes.Buffer
	if err := rdf.WriteNTriples(ds.Graph, &data); err != nil {
		t.Fatal(err)
	}
	texts := func(n int, seed uint64) []string {
		qs, err := ds.GenerateWorkload(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(qs))
		for i, q := range qs {
			out[i] = fmt.Sprintf("SELECT * WHERE { %s }", q.StringWithDict(ds.Graph.Dict))
		}
		return out
	}
	design, probes := texts(400, 1), texts(200, 7)
	dataPath := filepath.Join(tmp, "data.nt")
	wlPath := filepath.Join(tmp, "workload.rq")
	if err := os.WriteFile(dataPath, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(design, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	// The control loads the files, as the site process does, so that the
	// two dictionaries agree.
	db := Open(Config{Strategy: Horizontal, Sites: 4, MinSupport: 0.01})
	if _, err := db.LoadNTriples(bytes.NewReader(data.Bytes())); err != nil {
		t.Fatal(err)
	}
	dep, err := db.Deploy(design)
	if err != nil {
		t.Fatal(err)
	}
	minterms := 0
	for _, f := range dep.frag.Fragments {
		if f.Minterm != nil {
			minterms++
		}
	}
	if minterms == 0 {
		t.Fatal("no minterm fragment: the fixture does not exercise horizontal fragmentation")
	}

	// The control's own answers, before StartServer re-homes its sites.
	want := make([]*Result, len(probes))
	nonEmpty := 0
	for i, q := range probes {
		if want[i], err = dep.Query(q); err != nil {
			t.Fatalf("probe %d in process: %v", i, err)
		}
		if len(want[i].Rows) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(probes)/4 {
		t.Fatalf("only %d of %d probes have answers; the comparison proves little", nonEmpty, len(probes))
	}

	_, addr := startSiteProc(t, bin, dataPath, wlPath, "127.0.0.1:0",
		"-strategy", "horizontal", "-sites", "4", "-minsup", "0.01")
	srv := dep.StartServer(ServerConfig{
		Remote: RemoteConfig{
			Sites: allRemote(dep, "http://"+addr), Retries: 2, Backoff: 5 * time.Millisecond,
			FrameTimeout: 10 * time.Second,
		},
	})
	defer srv.Close()
	for i, q := range probes {
		got, err := srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("probe %d via the site process: %v", i, err)
		}
		if got.Stats.Partial || !sameRows(got.Rows, want[i].Rows) {
			t.Fatalf("probe %d %s: %d rows via the site process (partial %v), %d in process",
				i, q, len(got.Rows), got.Stats.Partial, len(want[i].Rows))
		}
	}
}
