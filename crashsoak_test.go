package rdffrag

// Crash-recovery soak: a real `rdffrag serve` process with a durable
// data directory is SIGKILLed at seeded points mid-update-stream — from
// the outside (plain process death) and from the inside via the WAL's
// fault-injecting filesystem (a simulated machine crash that tears the
// log tail mid-fsync) — then restarted, and the recovered state is
// checked against a client-side oracle that counts only acknowledged
// updates: no lost acks, no torn batches, no gaps. A final SIGTERM cycle
// proves graceful shutdown loses nothing even under the "interval" sync
// policy.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// crashBatch renders update batch i: two triples under dedicated
// predicates with a unique subject, so recovery can be checked for
// prefix-exactness (no gaps, no duplicates) and batch atomicity (both
// triples or neither).
func crashBatch(i int) string {
	return fmt.Sprintf("<C%d> <urn:crash:p> <V%d> .\n<C%d> <urn:crash:q> \"mark %d\" .\n", i, i, i, i)
}

// serveProc is one `rdffrag serve` child with a durable data directory.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	// recovered is the scraped recovery summary line ("" on bootstrap).
	recovered string
}

func (p *serveProc) url(path string) string { return "http://" + p.addr + path }

// startServeProc spawns `rdffrag serve -data-dir` and waits for the
// machine-readable listen line (scraping the recovery summary on the
// way); an empty dataDir serves without durability. extra appends to the
// base argument list.
func startServeProc(t *testing.T, bin, dataDir string, extra ...string) *serveProc {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start serve process: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	p := &serveProc{cmd: cmd}
	got := make(chan struct{}, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "recovered from ") {
				p.recovered = line
			}
			if strings.HasPrefix(line, "serving on ") {
				p.addr = strings.Fields(line)[2]
				got <- struct{}{}
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case <-got:
		return p
	case <-time.After(60 * time.Second):
		t.Fatal("serve process did not report a listen address in time")
		return nil
	}
}

// sendBatch posts one update; ok reports whether it was acknowledged
// (2xx with a parsed body). Anything else — connection reset by a dying
// process, a refused socket — counts as unacknowledged.
func sendBatch(p *serveProc, i int) (seq uint64, ok bool) {
	return sendDoc(p, crashBatch(i))
}

// sendDoc posts one update document, acknowledged as sendBatch's is.
func sendDoc(p *serveProc, doc string) (seq uint64, ok bool) {
	resp, err := http.Post(p.url("/update"), "application/n-triples", strings.NewReader(doc))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, false
	}
	var body struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, false
	}
	return body.Seq, true
}

// recoveredBatches queries the dedicated predicates and verifies the
// recovered set is exactly the prefix 1..R with both triples of every
// batch present (batch atomicity), returning R.
func recoveredBatches(t *testing.T, p *serveProc) int {
	t.Helper()
	subjects := func(query string) map[string]bool {
		resp, err := http.Post(p.url("/query?format=tsv"), "application/sparql-query", strings.NewReader(query))
		if err != nil {
			t.Fatalf("probe query: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe query: HTTP %d: %s", resp.StatusCode, b)
		}
		set := map[string]bool{}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		for _, line := range lines[1:] { // skip header
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			x := strings.Fields(line)[0]
			if set[x] {
				t.Fatalf("duplicate subject %q in recovered state (double apply)", x)
			}
			set[x] = true
		}
		return set
	}
	ps := subjects(`SELECT ?x WHERE { ?x <urn:crash:p> ?v . }`)
	qs := subjects(`SELECT ?x WHERE { ?x <urn:crash:q> ?v . }`)
	if len(ps) != len(qs) {
		t.Fatalf("torn batches: %d <urn:crash:p> subjects vs %d <urn:crash:q>", len(ps), len(qs))
	}
	for i := 1; i <= len(ps); i++ {
		want := fmt.Sprintf("<C%d>", i)
		if !ps[want] || !qs[want] {
			t.Fatalf("recovered state is not the prefix 1..%d: batch %d missing (set: %v)", len(ps), i, ps)
		}
	}
	return len(ps)
}

// walMetricsOf scrapes the WAL keys from /metrics.
func walMetricsOf(t *testing.T, p *serveProc) map[string]float64 {
	t.Helper()
	resp, err := http.Get(p.url("/metrics"))
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	out := map[string]float64{}
	for _, k := range []string{"wal_appends", "wal_last_seq", "wal_checkpoint_seq", "replayed_records", "checkpoints"} {
		v, ok := m[k].(float64)
		if !ok {
			t.Fatalf("metrics missing %q (durable server must export it): %v", k, m[k])
		}
		out[k] = v
	}
	return out
}

// waitDeath blocks until the child exits (it SIGKILLed itself, or we
// killed it).
func waitDeath(t *testing.T, p *serveProc) {
	t.Helper()
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("child did not die in time")
	}
}

func TestCrashRecoverySoak(t *testing.T) {
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
	if err := os.WriteFile(dataPath, []byte(soakNT(30, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(soakWorkload, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "durable")

	// Bootstrap: first start runs the offline pipeline and writes the
	// seq-0 checkpoint. Aggressive checkpointing (tiny thresholds) makes
	// the soak cross checkpoint/rotate/retire boundaries constantly.
	base := []string{"-data", dataPath, "-workload", wlPath, "-sites", "2", "-minsup", "0.2",
		"-wal-sync", "always", "-checkpoint-bytes", "4096", "-wal-segment-bytes", "2048"}
	p := startServeProc(t, bin, dataDir, base...)

	acked := 0     // batches with a 2xx ack — recovery owes us all of them
	attempted := 0 // batches sent; in-flight ones may or may not survive
	kills := 0

	verify := func(p *serveProc, phase string) {
		R := recoveredBatches(t, p)
		if R < acked || R > attempted {
			t.Fatalf("%s: recovered %d batches, want acked %d <= R <= attempted %d", phase, R, acked, attempted)
		}
		// Metrics reconciliation: what startup replayed is exactly the
		// log tail past the checkpoint.
		m := walMetricsOf(t, p)
		if m["replayed_records"] != m["wal_last_seq"]-m["wal_checkpoint_seq"] {
			t.Fatalf("%s: replayed_records %v != wal_last_seq %v - wal_checkpoint_seq %v",
				phase, m["replayed_records"], m["wal_last_seq"], m["wal_checkpoint_seq"])
		}
		// Re-anchor the oracle: every batch <= R is now durable state
		// (it will be re-checked after every later crash), the rest were
		// torn away before their ack.
		acked, attempted = R, R
	}

	for cycle := 0; kills < 20; cycle++ {
		injected := cycle%2 == 1 // odd cycles crash inside the WAL fsync
		if cycle > 0 {
			extra := append([]string(nil), base...)
			if injected {
				extra = append(extra, "-wal-crash-prob", "0.12", "-wal-crash-seed", fmt.Sprint(1000+cycle))
			}
			p = startServeProc(t, bin, dataDir, extra...)
			if p.recovered == "" {
				t.Fatalf("cycle %d: restart did not report a recovery summary", cycle)
			}
			verify(p, fmt.Sprintf("cycle %d", cycle))
		}

		if injected {
			// Stream until the injected machine crash SIGKILLs the child
			// mid-fsync (tearing the log tail at a seeded point).
			died := false
			for i := 0; i < 80; i++ {
				attempted++
				if seq, ok := sendBatch(p, attempted); ok {
					acked++
					_ = seq
				} else {
					died = true
					break
				}
			}
			if !died {
				t.Fatalf("cycle %d: 80 batches without an injected crash; raise the probability", cycle)
			}
			waitDeath(t, p)
		} else {
			// A few acked batches, then plain SIGKILL from the outside.
			for i := 0; i < 1+cycle%4; i++ {
				attempted++
				seq, ok := sendBatch(p, attempted)
				if !ok {
					t.Fatalf("cycle %d: healthy server rejected batch %d", cycle, attempted)
				}
				if seq == 0 {
					t.Fatalf("cycle %d: durable ack carried seq 0", cycle)
				}
				acked++
			}
			p.cmd.Process.Kill()
			waitDeath(t, p)
		}
		kills++
	}

	// Final restart after the last kill: everything acked survived 20+
	// crashes worth of torn tails, checkpoints and replays.
	p = startServeProc(t, bin, dataDir, base...)
	verify(p, "final")
	t.Logf("soak: %d kills, %d batches durable", kills, acked)
}

// sendDeleteBatch issues batch i as a DELETE /update; ok reports a 2xx
// ack, exactly like sendBatch.
func sendDeleteBatch(p *serveProc, i int) (seq uint64, ok bool) {
	req, err := http.NewRequest(http.MethodDelete, p.url("/update"), strings.NewReader(crashBatch(i)))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", "application/n-triples")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, false
	}
	var body struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, false
	}
	return body.Seq, true
}

// liveCrashBatches reads which crash batches are live (both dedicated
// predicates present — recovery replays whole batches, so a half-present
// batch means a torn insert or delete) and returns their numbers sorted.
func liveCrashBatches(t *testing.T, p *serveProc) []int {
	t.Helper()
	subjects := func(query string) map[int]bool {
		resp, err := http.Post(p.url("/query?format=tsv"), "application/sparql-query", strings.NewReader(query))
		if err != nil {
			t.Fatalf("probe query: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe query: HTTP %d: %s", resp.StatusCode, b)
		}
		set := map[int]bool{}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n")[1:] {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			var i int
			if _, err := fmt.Sscanf(strings.Fields(line)[0], "<C%d>", &i); err != nil {
				t.Fatalf("unexpected probe subject %q", line)
			}
			if set[i] {
				t.Fatalf("duplicate subject C%d in recovered state (double apply)", i)
			}
			set[i] = true
		}
		return set
	}
	ps := subjects(`SELECT ?x WHERE { ?x <urn:crash:p> ?v . }`)
	qs := subjects(`SELECT ?x WHERE { ?x <urn:crash:q> ?v . }`)
	if len(ps) != len(qs) {
		t.Fatalf("torn batches: %d <urn:crash:p> subjects vs %d <urn:crash:q>", len(ps), len(qs))
	}
	out := make([]int, 0, len(ps))
	for i := range ps {
		if !qs[i] {
			t.Fatalf("batch %d half-present (torn delete or insert)", i)
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// TestCrashRecoveryDeleteSoak SIGKILLs a durable server mid-stream of
// alternating insert/delete ops — op 2k-1 inserts batch C_k, op 2k
// deletes it — from the outside and via the WAL's fault-injecting
// filesystem. Recovery must land on an exact op prefix: the live set is
// empty (even prefix) or exactly the one batch whose delete had not
// acked (odd prefix), never a resurrected batch whose delete was
// acknowledged before the kill, and never a torn half-batch. Acked
// deletes are owed durability exactly like acked inserts: the WAL
// record's kind byte is what keeps replay from re-inserting them.
func TestCrashRecoveryDeleteSoak(t *testing.T) {
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
	if err := os.WriteFile(dataPath, []byte(soakNT(30, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(soakWorkload, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "durable")
	base := []string{"-data", dataPath, "-workload", wlPath, "-sites", "2", "-minsup", "0.2",
		"-wal-sync", "always", "-checkpoint-bytes", "4096", "-wal-segment-bytes", "2048"}
	p := startServeProc(t, bin, dataDir, base...)

	// sendOp issues op j of the alternating stream.
	sendOp := func(p *serveProc, j int) bool {
		if j%2 == 1 {
			_, ok := sendBatch(p, (j+1)/2)
			return ok
		}
		_, ok := sendDeleteBatch(p, j/2)
		return ok
	}
	// liveFor is the oracle: the live set after an exact prefix of R ops.
	liveFor := func(R int) []int {
		if R%2 == 1 {
			return []int{(R + 1) / 2}
		}
		return nil
	}

	acked, attempted, kills := 0, 0, 0
	verify := func(p *serveProc, phase string) {
		live := liveCrashBatches(t, p)
		found := -1
		for R := acked; R <= attempted; R++ {
			if want := liveFor(R); fmt.Sprint(live) == fmt.Sprint(want) || (len(live) == 0 && len(want) == 0) {
				found = R
				break
			}
		}
		if found < 0 {
			t.Fatalf("%s: live set %v matches no op prefix in [%d, %d] — a lost ack or a resurrected delete",
				phase, live, acked, attempted)
		}
		m := walMetricsOf(t, p)
		if m["replayed_records"] != m["wal_last_seq"]-m["wal_checkpoint_seq"] {
			t.Fatalf("%s: replayed_records %v != wal_last_seq %v - wal_checkpoint_seq %v",
				phase, m["replayed_records"], m["wal_last_seq"], m["wal_checkpoint_seq"])
		}
		acked, attempted = found, found
	}

	for cycle := 0; kills < 12; cycle++ {
		injected := cycle%2 == 1 // odd cycles crash inside the WAL fsync
		if cycle > 0 {
			extra := append([]string(nil), base...)
			if injected {
				extra = append(extra, "-wal-crash-prob", "0.12", "-wal-crash-seed", fmt.Sprint(7000+cycle))
			}
			p = startServeProc(t, bin, dataDir, extra...)
			if p.recovered == "" {
				t.Fatalf("cycle %d: restart did not report a recovery summary", cycle)
			}
			verify(p, fmt.Sprintf("cycle %d", cycle))
		}

		if injected {
			died := false
			for i := 0; i < 120; i++ {
				attempted++
				if sendOp(p, attempted) {
					acked++
				} else {
					died = true
					break
				}
			}
			if !died {
				t.Fatalf("cycle %d: 120 ops without an injected crash; raise the probability", cycle)
			}
			waitDeath(t, p)
		} else {
			// A few acked ops — ending on a just-acked delete half the
			// time — then plain SIGKILL from the outside.
			for i := 0; i < 1+cycle%4; i++ {
				attempted++
				if !sendOp(p, attempted) {
					t.Fatalf("cycle %d: healthy server rejected op %d", cycle, attempted)
				}
				acked++
			}
			p.cmd.Process.Kill()
			waitDeath(t, p)
		}
		kills++
	}

	p = startServeProc(t, bin, dataDir, base...)
	verify(p, "final")
	t.Logf("delete soak: %d kills, %d ops durable", kills, acked)
}

// owCrashDoc renders version v of overwrite key k: two triples under
// dedicated predicates, so a recovered key holding p's version without
// q's (or two versions on one predicate) is a torn overwrite.
func owCrashDoc(k, v int) string {
	return fmt.Sprintf("<OWC%d> <urn:ow:p> \"v%d\" .\n<OWC%d> <urn:ow:q> \"v%d\" .\n", k, v, k, v)
}

// sendOverwrite issues overwrite op j of the round-robin stream: op j
// targets key k = ((j-1) mod 4)+1 and moves it to version v = (j-1)/4+1
// by deleting version v-1's two triples and inserting version v's as one
// PUT /update batch. ok reports a 2xx ack.
func sendOverwrite(p *serveProc, j int) bool {
	k, v := (j-1)%4+1, (j-1)/4+1
	del := ""
	if v > 1 {
		del = owCrashDoc(k, v-1)
	}
	req, err := http.NewRequest(http.MethodPut, p.url("/update"), strings.NewReader(del+"---\n"+owCrashDoc(k, v)))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/n-triples")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	var body struct {
		Seq uint64 `json:"seq"`
	}
	return json.NewDecoder(resp.Body).Decode(&body) == nil && body.Seq > 0
}

// overwriteVersions reads each key's recovered version and fails the
// test on any torn or mixed state: a key with two versions on one
// predicate, or whose <urn:ow:p> and <urn:ow:q> versions disagree, saw
// an overwrite applied by halves.
func overwriteVersions(t *testing.T, p *serveProc) map[int]int {
	t.Helper()
	versions := func(query string) map[int]int {
		resp, err := http.Post(p.url("/query?format=tsv"), "application/sparql-query", strings.NewReader(query))
		if err != nil {
			t.Fatalf("probe query: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe query: HTTP %d: %s", resp.StatusCode, b)
		}
		set := map[int]int{}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n")[1:] {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			var k, v int
			if _, err := fmt.Sscanf(line, "<OWC%d> \"v%d\"", &k, &v); err != nil {
				t.Fatalf("unexpected probe row %q: %v", line, err)
			}
			if old, dup := set[k]; dup {
				t.Fatalf("key %d holds versions %d and %d on one predicate (mixed overwrite)", k, old, v)
			}
			set[k] = v
		}
		return set
	}
	ps := versions(`SELECT ?x ?v WHERE { ?x <urn:ow:p> ?v . }`)
	qs := versions(`SELECT ?x ?v WHERE { ?x <urn:ow:q> ?v . }`)
	if len(ps) != len(qs) {
		t.Fatalf("torn overwrites: %d keys on <urn:ow:p> vs %d on <urn:ow:q>", len(ps), len(qs))
	}
	for k, pv := range ps {
		if qv, present := qs[k]; !present || qv != pv {
			t.Fatalf("key %d torn: <urn:ow:p> v%d vs <urn:ow:q> v%v (old and new mixed)", k, pv, qs[k])
		}
	}
	return ps
}

// TestCrashRecoveryOverwriteSoak SIGKILLs a durable server mid-stream of
// round-robin overwrite batches — from the outside and via the WAL's
// fault-injecting filesystem tearing fsyncs — and requires every
// recovered key to hold exactly one complete version: the old one or the
// new one, both predicates agreeing, never a mix and never neither.
// That is the batch-framed WAL record's whole contract: an overwrite's
// delete-set and insert-set share one CRC frame, so a torn tail drops
// the swap whole instead of replaying half of it. The recovered versions
// must also be consistent with a single op prefix R in
// [acked, attempted], and replayed_records must reconcile with the log.
func TestCrashRecoveryOverwriteSoak(t *testing.T) {
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
	if err := os.WriteFile(dataPath, []byte(soakNT(30, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(soakWorkload, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "durable")
	base := []string{"-data", dataPath, "-workload", wlPath, "-sites", "2", "-minsup", "0.2",
		"-wal-sync", "always", "-checkpoint-bytes", "4096", "-wal-segment-bytes", "2048"}
	p := startServeProc(t, bin, dataDir, base...)

	// expected computes key k's version after an exact prefix of R ops
	// (0 = key absent): ops k, k+4, k+8, ... target key k.
	expected := func(R, k int) int {
		if R < k {
			return 0
		}
		return (R-k)/4 + 1
	}

	acked, attempted, kills := 0, 0, 0
	verify := func(p *serveProc, phase string) {
		vs := overwriteVersions(t, p)
		found := -1
		for R := acked; R <= attempted; R++ {
			match := true
			for k := 1; k <= 4; k++ {
				if vs[k] != expected(R, k) {
					match = false
					break
				}
			}
			if match {
				found = R
				break
			}
		}
		if found < 0 {
			t.Fatalf("%s: key versions %v match no op prefix in [%d, %d] — a lost ack or a half-applied overwrite",
				phase, vs, acked, attempted)
		}
		m := walMetricsOf(t, p)
		if m["replayed_records"] != m["wal_last_seq"]-m["wal_checkpoint_seq"] {
			t.Fatalf("%s: replayed_records %v != wal_last_seq %v - wal_checkpoint_seq %v",
				phase, m["replayed_records"], m["wal_last_seq"], m["wal_checkpoint_seq"])
		}
		acked, attempted = found, found
	}

	for cycle := 0; kills < 12; cycle++ {
		injected := cycle%2 == 1 // odd cycles crash inside the WAL fsync
		if cycle > 0 {
			extra := append([]string(nil), base...)
			if injected {
				extra = append(extra, "-wal-crash-prob", "0.12", "-wal-crash-seed", fmt.Sprint(4000+cycle))
			}
			p = startServeProc(t, bin, dataDir, extra...)
			if p.recovered == "" {
				t.Fatalf("cycle %d: restart did not report a recovery summary", cycle)
			}
			verify(p, fmt.Sprintf("cycle %d", cycle))
		}

		if injected {
			// Stream overwrites until the injected machine crash SIGKILLs
			// the child mid-fsync, tearing the log tail mid-overwrite.
			died := false
			for i := 0; i < 120; i++ {
				attempted++
				if sendOverwrite(p, attempted) {
					acked++
				} else {
					died = true
					break
				}
			}
			if !died {
				t.Fatalf("cycle %d: 120 overwrites without an injected crash; raise the probability", cycle)
			}
			waitDeath(t, p)
		} else {
			// A few acked overwrites, then plain SIGKILL from the outside.
			for i := 0; i < 1+cycle%4; i++ {
				attempted++
				if !sendOverwrite(p, attempted) {
					t.Fatalf("cycle %d: healthy server rejected overwrite %d", cycle, attempted)
				}
				acked++
			}
			p.cmd.Process.Kill()
			waitDeath(t, p)
		}
		kills++
	}

	p = startServeProc(t, bin, dataDir, base...)
	verify(p, "final")
	t.Logf("overwrite soak: %d kills, %d overwrites durable", kills, acked)
}

// writerBatch renders writer w's batch i in the checkpoint soak: two
// triples under the dedicated predicates, with a subject of the writer's
// own, so each writer's recovered batches can be checked as a prefix of
// what it sent.
func writerBatch(w, i int) string {
	return fmt.Sprintf("<W%dC%d> <urn:crash:p> <V%d> .\n<W%dC%d> <urn:crash:q> \"mark %d\" .\n", w, i, i, w, i, i)
}

// writerPrefixes reads how many batches of each of n writers recovered,
// failing the test unless each writer's batches are exactly 1..R, whole.
func writerPrefixes(t *testing.T, p *serveProc, n int) []int {
	t.Helper()
	subjects := func(query string) []map[int]bool {
		resp, err := http.Post(p.url("/query?format=tsv"), "application/sparql-query", strings.NewReader(query))
		if err != nil {
			t.Fatalf("probe query: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe query: HTTP %d: %s", resp.StatusCode, b)
		}
		sets := make([]map[int]bool, n)
		for w := range sets {
			sets[w] = map[int]bool{}
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n")[1:] {
			var w, i int
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "<W%dC%d>", &w, &i); err != nil || w < 0 || w >= n {
				t.Fatalf("unexpected probe subject %q", line)
			}
			if sets[w][i] {
				t.Fatalf("duplicate subject W%dC%d in recovered state (double apply)", w, i)
			}
			sets[w][i] = true
		}
		return sets
	}
	ps := subjects(`SELECT ?x WHERE { ?x <urn:crash:p> ?v . }`)
	qs := subjects(`SELECT ?x WHERE { ?x <urn:crash:q> ?v . }`)
	out := make([]int, n)
	for w := range n {
		for i := 1; i <= len(ps[w]); i++ {
			if !ps[w][i] || !qs[w][i] {
				t.Fatalf("writer %d: recovered state is not the prefix 1..%d whole: batch %d missing or torn", w, len(ps[w]), i)
			}
		}
		if len(qs[w]) != len(ps[w]) {
			t.Fatalf("writer %d: torn batches: %d <urn:crash:p> subjects vs %d <urn:crash:q>", w, len(ps[w]), len(qs[w]))
		}
		out[w] = len(ps[w])
	}
	return out
}

// TestCrashRecoveryCheckpointSoak SIGKILLs a durable server while two
// writers stream batches and the checkpointer — kicked by every append
// (-checkpoint-bytes 1) — writes image after image off the writer lock,
// overlapping the appends. The kills take turns: from the outside after a
// seeded delay; by the fault-injecting filesystem tearing an fsync, of
// the WAL or of a checkpoint's temp file; and from the outside the moment
// a checkpoint's temp file appears, inside the off-lock write. A temp file
// left behind counts a kill inside a checkpoint write. Every restart must
// load a whole checkpoint, the old one or the new one and never one older
// than the last restart loaded, and replay each writer to exactly a prefix
// between its acknowledged and its attempted batches.
func TestCrashRecoveryCheckpointSoak(t *testing.T) {
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
	if err := os.WriteFile(dataPath, []byte(soakNT(30, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(soakWorkload, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "durable")
	tmpCheckpoint := filepath.Join(dataDir, checkpointFile+".tmp")
	base := []string{"-data", dataPath, "-workload", wlPath, "-sites", "2", "-minsup", "0.2",
		"-wal-sync", "always", "-checkpoint-bytes", "1", "-wal-segment-bytes", "2048"}
	p := startServeProc(t, bin, dataDir, base...)

	const writers = 2
	acked, attempted := make([]int, writers), make([]int, writers)
	var lastCheckpoint uint64
	verify := func(p *serveProc, phase string) {
		for w, r := range writerPrefixes(t, p, writers) {
			if r < acked[w] || r > attempted[w] {
				t.Fatalf("%s: writer %d recovered %d batches, want acked %d <= R <= attempted %d", phase, w, r, acked[w], attempted[w])
			}
			acked[w], attempted[w] = r, r
		}
		m := walMetricsOf(t, p)
		if m["replayed_records"] != m["wal_last_seq"]-m["wal_checkpoint_seq"] {
			t.Fatalf("%s: replayed_records %v != wal_last_seq %v - wal_checkpoint_seq %v",
				phase, m["replayed_records"], m["wal_last_seq"], m["wal_checkpoint_seq"])
		}
		if seq := uint64(m["wal_checkpoint_seq"]); seq < lastCheckpoint {
			t.Fatalf("%s: recovered from checkpoint seq %d, older than the %d the last restart loaded", phase, seq, lastCheckpoint)
		} else {
			lastCheckpoint = seq
		}
	}

	r := rand.New(rand.NewSource(27))
	kills, insideWrite := 0, 0
	for cycle := 0; kills < 15; cycle++ {
		mode := cycle % 3 // 0: seeded delay, 1: torn fsync, 2: at a checkpoint's temp file
		if cycle > 0 {
			extra := append([]string(nil), base...)
			if mode == 1 {
				extra = append(extra, "-wal-crash-prob", "0.08", "-wal-crash-seed", fmt.Sprint(2700+cycle))
			}
			p = startServeProc(t, bin, dataDir, extra...)
			if p.recovered == "" {
				t.Fatalf("cycle %d: restart did not report a recovery summary", cycle)
			}
			verify(p, fmt.Sprintf("cycle %d", cycle))
		}

		// Each writer streams until the process stops acknowledging; a
		// torn-fsync cycle must die within its budget.
		budget := 1 << 20
		if mode == 1 {
			budget = 200
		}
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range budget {
					attempted[w]++
					if _, ok := sendDoc(p, writerBatch(w, attempted[w])); !ok {
						return
					}
					acked[w]++
				}
			}()
		}
		switch mode {
		case 0:
			time.Sleep(time.Duration(20+r.Intn(200)) * time.Millisecond)
			p.cmd.Process.Kill()
		case 1:
			if wg.Wait(); acked[0]+acked[1] == attempted[0]+attempted[1] {
				t.Fatalf("cycle %d: %d batches without an injected crash; raise the probability", cycle, writers*budget)
			}
		case 2:
			deadline := time.Now().Add(30 * time.Second)
			for {
				if _, err := os.Stat(tmpCheckpoint); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("cycle %d: no checkpoint began within 30s of streaming", cycle)
				}
				time.Sleep(100 * time.Microsecond)
			}
			p.cmd.Process.Kill()
		}
		waitDeath(t, p)
		wg.Wait()
		if _, err := os.Stat(tmpCheckpoint); err == nil {
			insideWrite++
		}
		kills++
	}

	p = startServeProc(t, bin, dataDir, base...)
	verify(p, "final")
	if lastCheckpoint == 0 || insideWrite < 3 {
		t.Fatalf("%d of %d kills landed inside a checkpoint write, the last restart loaded checkpoint seq %d: the soak did not exercise what it is for",
			insideWrite, kills, lastCheckpoint)
	}
	t.Logf("checkpoint soak: %d kills, %d inside a checkpoint write, %v batches durable", kills, insideWrite, acked)
}

// TestGracefulShutdownSIGTERM: under the lossy-window "interval" sync
// policy, SIGTERM must drain, checkpoint, fsync and mark the directory
// clean — the restart replays nothing and has every acknowledged batch.
func TestGracefulShutdownSIGTERM(t *testing.T) {
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
	if err := os.WriteFile(dataPath, []byte(soakNT(30, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(soakWorkload, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "durable")
	base := []string{"-data", dataPath, "-workload", wlPath, "-sites", "2", "-minsup", "0.2",
		"-wal-sync", "interval", "-drain-timeout", "10s"}

	p := startServeProc(t, bin, dataDir, base...)
	const batches = 10
	for i := 1; i <= batches; i++ {
		if _, ok := sendBatch(p, i); !ok {
			t.Fatalf("batch %d rejected", i)
		}
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v (want clean exit 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}

	p2 := startServeProc(t, bin, dataDir, base...)
	if !strings.Contains(p2.recovered, "replayed=0") || !strings.Contains(p2.recovered, "clean=true") {
		t.Fatalf("restart after SIGTERM was not clean: %q", p2.recovered)
	}
	if got := recoveredBatches(t, p2); got != batches {
		t.Fatalf("recovered %d batches after graceful shutdown, want %d (interval acks lost)", got, batches)
	}
}

// TestSiteGracefulShutdownSIGTERM: a fragment-host process drains and
// exits 0 on SIGTERM.
func TestSiteGracefulShutdownSIGTERM(t *testing.T) {
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
	if err := os.WriteFile(dataPath, []byte(soakNT(20, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(soakWorkload, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	proc, addr := startSiteProc(t, bin, dataPath, wlPath, "127.0.0.1:0")
	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	} else {
		resp.Body.Close()
	}
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("site SIGTERM exit: %v (want clean exit 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("site did not exit after SIGTERM")
	}
}

// ttlBatch is one batch of the TTL soak: two triples under the dedicated
// predicates, stamped with ttl (0: permanent).
type ttlBatch struct {
	i          int
	ttl        time.Duration
	sent, done time.Time // done: acked, or when the process was seen dead
	acked      bool
	torn       bool // seen absent before it could expire: it must stay so
}

func (b *ttlBatch) doc() string {
	return fmt.Sprintf("<TS%d> <urn:ttl:p> \"%d\" .\n<TS%d> <urn:ttl:q> \"%d\" .\n", b.i, b.i, b.i, b.i)
}

// sendTTL posts b with its TTL in the X-TTL header and reports an ack.
func sendTTL(p *serveProc, b *ttlBatch) bool {
	req, err := http.NewRequest(http.MethodPost, p.url("/update"), strings.NewReader(b.doc()))
	if err != nil {
		return false
	}
	if b.ttl > 0 {
		req.Header.Set("X-TTL", b.ttl.String())
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// liveTTLBatches reads which TTL-soak batches are present, in one query
// so that no sweep lands between the reads of a batch's two triples, and
// fails the test on a batch with one of them. ok is false when the
// process died before it answered.
func liveTTLBatches(t *testing.T, p *serveProc) (live map[int]bool, ok bool) {
	t.Helper()
	resp, err := http.Post(p.url("/query?format=tsv"), "application/sparql-query",
		strings.NewReader(`SELECT ?x ?p WHERE { ?x ?p ?v . }`))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe query: HTTP %d: %s", resp.StatusCode, b)
	}
	halves := map[int]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n")[1:] {
		var i int
		if _, err := fmt.Sscanf(line, "<TS%d>", &i); err == nil && strings.Contains(line, "<urn:ttl:") {
			halves[i]++
		}
	}
	live = map[int]bool{}
	for i, n := range halves {
		if n != 2 {
			t.Fatalf("batch %d has %d of its 2 triples (a torn batch or a torn sweep)", i, n)
		}
		live[i] = true
	}
	return live, true
}

// TestCrashRecoveryTTLSoak streams TTL-stamped and permanent batches into
// a durable server that sweeps every 50ms and checkpoints after every
// append, and kills it at seeded points: from the outside after a seeded
// delay, by the fault-injecting filesystem tearing an fsync (of the WAL or
// of a checkpoint's temp file), and from the outside the moment a
// checkpoint's temp file appears — plus one clean SIGTERM. After each
// restart, every acknowledged TTL batch is present until its original
// absolute deadline, and gone within one sweep interval (plus slack) of
// it, or of the restart when the deadline passed while the process was
// down; every acknowledged permanent batch stays. A TTL deadline that
// lived only in the process would outlive its batch past the first kill.
func TestCrashRecoveryTTLSoak(t *testing.T) {
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
	if err := os.WriteFile(dataPath, []byte(soakNT(30, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(strings.Join(soakWorkload, "\n---\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "durable")
	tmpCheckpoint := filepath.Join(dataDir, checkpointFile+".tmp")
	const (
		sweep = 50 * time.Millisecond
		slack = time.Second
	)
	base := []string{"-data", dataPath, "-workload", wlPath, "-sites", "2", "-minsup", "0.2",
		"-wal-sync", "always", "-checkpoint-bytes", "1", "-wal-segment-bytes", "2048",
		"-sweep-interval", sweep.String()}
	p := startServeProc(t, bin, dataDir, base...)
	up := time.Now() // the sweeper has started by now

	var batches []*ttlBatch
	// verify checks the restarted process; false means the injected crash
	// killed it, in a sweep's or a checkpoint's fsync, before it answered.
	verify := func(p *serveProc, phase string) bool {
		t0 := time.Now()
		live, ok := liveTTLBatches(t, p)
		if !ok {
			return false
		}
		t1 := time.Now()
		for _, b := range batches {
			has := live[b.i]
			switch {
			case b.torn && has:
				t.Fatalf("%s: batch %d, seen torn, is back", phase, b.i)
			case b.ttl == 0 && b.acked && !has:
				t.Fatalf("%s: acknowledged permanent batch %d is gone", phase, b.i)
			case b.ttl > 0 && b.acked && !has && t1.Before(b.sent.Add(b.ttl)):
				t.Fatalf("%s: acknowledged batch %d is gone before its deadline, %v after it was sent with X-TTL %v",
					phase, b.i, t1.Sub(b.sent), b.ttl)
			case b.ttl > 0 && has && t0.After(later(b.done.Add(b.ttl), up).Add(sweep+slack)):
				t.Fatalf("%s: batch %d outlived its X-TTL %v: still present %v after it was stamped, %v after the restart",
					phase, b.i, b.ttl, t0.Sub(b.done), t0.Sub(up))
			}
			// An unacknowledged batch that recovered is owed what an
			// acknowledged one is; one absent before it could have expired
			// was torn away.
			if !b.acked && has {
				b.acked = true
			} else if !b.acked && (b.ttl == 0 || t1.Before(b.sent.Add(b.ttl))) {
				b.torn = true
			}
		}
		return true
	}

	r := rand.New(rand.NewSource(28))
	delays := rand.New(rand.NewSource(29))
	kills, probeKills := 0, 0
	for cycle := 0; kills < 9; cycle++ {
		mode := cycle % 3 // 0: seeded delay, 1: torn fsync, 2: at a checkpoint's temp file
		extra := append([]string(nil), base...)
		if mode == 1 {
			extra = append(extra, "-wal-crash-prob", "0.08", "-wal-crash-seed", fmt.Sprint(2800+cycle))
		}
		if cycle > 0 {
			p = startServeProc(t, bin, dataDir, extra...)
			up = time.Now()
			if p.recovered == "" {
				t.Fatalf("cycle %d: restart did not report a recovery summary", cycle)
			}
			if !verify(p, fmt.Sprintf("cycle %d", cycle)) {
				waitDeath(t, p)
				kills++
				probeKills++
				continue
			}
		}
		if cycle == 3 {
			// The clean restart: SIGTERM checkpoints the schedule and
			// marks the directory clean, so the restart replays nothing.
			if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			waitDeath(t, p)
			p = startServeProc(t, bin, dataDir, extra...)
			up = time.Now()
			if !strings.Contains(p.recovered, "replayed=0") || !strings.Contains(p.recovered, "clean=true") {
				t.Fatalf("restart after SIGTERM was not clean: %q", p.recovered)
			}
			if !verify(p, "after SIGTERM") {
				t.Fatal("the process restarted after SIGTERM died without an injected crash")
			}
		}

		first := len(batches)
		budget := 1 << 20
		if mode == 1 {
			budget = 200
		}
		streamed := make(chan struct{})
		go func() {
			defer close(streamed)
			for range budget {
				b := &ttlBatch{i: len(batches) + 1, sent: time.Now()}
				if r.Intn(3) > 0 {
					b.ttl = time.Duration(300+r.Intn(2700)) * time.Millisecond
				}
				batches = append(batches, b)
				if !sendTTL(p, b) {
					return
				}
				b.acked, b.done = true, time.Now()
			}
		}()
		switch mode {
		case 0:
			time.Sleep(time.Duration(100+delays.Intn(400)) * time.Millisecond)
			p.cmd.Process.Kill()
		case 1:
			if <-streamed; len(batches)-first == budget && batches[len(batches)-1].acked {
				t.Fatalf("cycle %d: %d batches without an injected crash; raise the probability", cycle, budget)
			}
		case 2:
			deadline := time.Now().Add(30 * time.Second)
			for {
				if _, err := os.Stat(tmpCheckpoint); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("cycle %d: no checkpoint began within 30s of streaming", cycle)
				}
				time.Sleep(100 * time.Microsecond)
			}
			p.cmd.Process.Kill()
		}
		waitDeath(t, p)
		<-streamed
		died := time.Now()
		for _, b := range batches[first:] {
			if !b.acked {
				b.done = died // the latest the server can have stamped it
			}
		}
		kills++
	}

	// The last restart: wait until every deadline is past its bound, then
	// every TTL batch must be gone and every durable permanent one there.
	p = startServeProc(t, bin, dataDir, base...)
	up = time.Now()
	if !verify(p, "final restart") {
		t.Fatal("the final process died without an injected crash")
	}
	last := up
	for _, b := range batches {
		last = later(last, b.done.Add(b.ttl))
	}
	time.Sleep(time.Until(last.Add(sweep + slack + 100*time.Millisecond)))
	if !verify(p, "after every deadline") {
		t.Fatal("the final process died without an injected crash")
	}
	acked, stamped := 0, 0
	for _, b := range batches {
		if b.acked {
			acked++
			if b.ttl > 0 {
				stamped++
			}
		}
	}
	t.Logf("TTL soak: %d kills (%d of them while a restart was being checked) and a SIGTERM, %d batches durable, %d of them TTL-stamped",
		kills, probeKills, acked, stamped)
}

// later is the later of two instants.
func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
