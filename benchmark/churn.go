package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The churn workload's writer: an open loop at a fixed rate over keys
// the benchmark owns. A key's value is one version, ten triples that
// hang five fresh products (each with its producer) off the key through
// wsdbm:likes and mfgr:producedBy — the predicates the reader's queries
// traverse. Per key the writer cycles insert → overwrite → overwrite →
// delete, so a point read must see exactly one complete version, or
// none between a delete and the next insert.

const (
	churnKeys      = 32
	churnRate      = 100.0          // batches per second: about a quarter of what the server sustains here
	churnCycle     = 4 * churnKeys  // one insert/overwrite/overwrite/delete round per key
	churnWarmOps   = 2 * churnCycle // the writer's untimed warm-up
	versionTriples = 10
	// churnCheckpointBytes is the WAL size that triggers a checkpoint:
	// small enough for five to seven checkpoints in a 15 s run.
	churnCheckpointBytes = 256 << 10
)

type writeOp struct {
	key     int
	kind    string // "insert", "overwrite", "delete"
	method  string
	body    string
	version int // the key's version once the op has landed; 0 = absent
}

func keyIRI(seed int64, key int) string { return fmt.Sprintf("<bench:s%d-k%d>", seed, key) }

func productIRI(seed int64, key, version, j int) string {
	return fmt.Sprintf("<bench:s%d-k%d-v%d-p%d>", seed, key, version, j)
}

func producerIRI(seed int64, key, version int) string {
	return fmt.Sprintf("<bench:s%d-k%d-v%d-r>", seed, key, version)
}

// versionDoc renders one version of a key as N-Triples.
func versionDoc(seed int64, key, version int) string {
	var b strings.Builder
	for j := 0; j < versionTriples/2; j++ {
		p := productIRI(seed, key, version, j)
		fmt.Fprintf(&b, "%s <wsdbm:likes> %s .\n", keyIRI(seed, key), p)
		fmt.Fprintf(&b, "%s <mfgr:producedBy> %s .\n", p, producerIRI(seed, key, version))
	}
	return b.String()
}

// pointRead is the query that reads a key's current version.
func pointRead(seed int64, key int) string {
	return fmt.Sprintf("SELECT ?p ?r WHERE { %s <wsdbm:likes> ?p . ?p <mfgr:producedBy> ?r . }", keyIRI(seed, key))
}

// writeSequence lays out n write ops: round r visits every key once, in
// order, applying the round's kind.
func writeSequence(seed int64, n int) []writeOp {
	ops := make([]writeOp, 0, n)
	version := make([]int, churnKeys) // current version per key, 0 = absent
	issued := make([]int, churnKeys)  // versions handed out so far per key
	for i := 0; i < n; i++ {
		k, round := i%churnKeys, i/churnKeys
		var w writeOp
		switch round % 4 {
		case 0:
			issued[k]++
			w = writeOp{kind: "insert", method: "POST", body: versionDoc(seed, k, issued[k]), version: issued[k]}
		case 1, 2:
			old := version[k]
			issued[k]++
			w = writeOp{kind: "overwrite", method: "PUT",
				body: versionDoc(seed, k, old) + "---\n" + versionDoc(seed, k, issued[k]), version: issued[k]}
		default:
			w = writeOp{kind: "delete", method: "DELETE", body: versionDoc(seed, k, version[k]), version: 0}
		}
		w.key = k
		version[k] = w.version
		ops = append(ops, w)
	}
	return ops
}

// dueLatency is an open-loop operation's latency: from when it was due
// to be sent, not from when it was sent, so the wait a stall imposes on
// the operations behind it is counted.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// writer drives the sequence at churnRate on one connection. It stamps
// when each op's request began and when its durable acknowledgement had
// been read; the reader brackets each point read with those.
type writer struct {
	ops            []writeOp
	startNS, ackNS []atomic.Int64 // per op, UnixNano; 0 = not yet
	started, acked atomic.Int64   // how many ops have begun / been acknowledged

	samples   []sample // per acknowledged op: latency from due time
	lateMS    []float64
	userBytes int64
	failed    int
	firstErr  error
}

// run sends every op at its due time t0 + i/rate (or at once, when
// behind schedule) and returns when the last is acknowledged.
func (w *writer) run(ctx context.Context, c *client, t0 time.Time) {
	for i, o := range w.ops {
		due := t0.Add(time.Duration(float64(i) / churnRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		sent := time.Now()
		w.startNS[i].Store(sent.UnixNano())
		w.started.Store(int64(i + 1))
		_, _, err := c.do(ctx, o.method, "/update", o.body)
		done := time.Now()
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("write %d (%s key %d): %w", i, o.kind, o.key, err)
			}
			continue
		}
		w.ackNS[i].Store(done.UnixNano())
		w.acked.Store(int64(i + 1))
		w.userBytes += int64(len(o.body))
		w.lateMS = append(w.lateMS, float64(sent.Sub(due))/float64(time.Millisecond))
		w.samples = append(w.samples, sample{
			cycle: i / churnCycle, template: o.kind,
			start: due.Sub(t0).Seconds(), latMS: float64(dueLatency(due, done)) / float64(time.Millisecond),
		})
	}
}

func newWriter(ops []writeOp) *writer {
	return &writer{ops: ops, startNS: make([]atomic.Int64, len(ops)), ackNS: make([]atomic.Int64, len(ops))}
}

// countBy is how many leading ops had their stamp set at or before t.
// A failed write leaves its ack stamp unset, which only widens the
// window of versions a later read may see.
func countBy(stamps []atomic.Int64, upTo int64, t time.Time) int {
	n := int(upTo)
	for n > 0 && (stamps[n-1].Load() == 0 || stamps[n-1].Load() > t.UnixNano()) {
		n--
	}
	return n
}

// versionAfter is key's version once the first n ops have landed.
func versionAfter(ops []writeOp, key, n int) int {
	for i := n - 1; i >= 0; i-- {
		if ops[i].key == key {
			return ops[i].version
		}
	}
	return 0
}

// readVersion decodes a point read's rows into the version they show:
// 0 for no rows, an error for anything but one complete version.
func readVersion(seed int64, key int, rows [][]string) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	prefix := fmt.Sprintf("bench:s%d-k%d-v", seed, key)
	var version int
	if _, err := fmt.Sscanf(strings.TrimPrefix(rows[0][1], prefix), "%d-r", &version); err != nil || !strings.HasPrefix(rows[0][1], prefix) {
		return 0, fmt.Errorf("key %d: unexpected producer %q", key, rows[0][1])
	}
	var got []string
	for _, r := range rows {
		got = append(got, "<"+r[0]+"> <"+r[1]+">")
	}
	sort.Strings(got)
	var want []string
	for j := 0; j < versionTriples/2; j++ {
		want = append(want, productIRI(seed, key, version, j)+" "+producerIRI(seed, key, version))
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return 0, fmt.Errorf("key %d: torn read: rows %v are not one complete version", key, got)
	}
	return version, nil
}

// churnChecker checks the reader's answers: pool queries against the
// oracle (the churned triples never join the data set's entities, so
// those answers do not change), point reads against the versions the
// writer's progress allows.
type churnChecker struct {
	oracle *oracleChecker
	seed   int64
	w      *writer
}

// pointReadTemplate marks an op as a point read; its key is the churn
// key, not an oracle query.
const pointReadTemplate = "PR"

func (cc *churnChecker) check(o op, body []byte, sent, got time.Time) error {
	if o.template != pointReadTemplate {
		return cc.oracle.check(o, body, sent, got)
	}
	lo := countBy(cc.w.ackNS, cc.w.acked.Load(), sent)
	hi := countBy(cc.w.startNS, cc.w.started.Load(), got)
	res, err := readResult(body, []string{"p", "r"}, true)
	if err != nil {
		return err
	}
	v, err := readVersion(cc.seed, o.key, res.rowValues)
	if err != nil {
		return err
	}
	return versionAllowed(cc.w.ops, o.key, v, lo, hi)
}

// versionAllowed reports whether a read that began after lo ops were
// acknowledged and ended before more than hi had started may see
// version v of key: v must be the key's version after some prefix of
// the sequence between those two points.
func versionAllowed(ops []writeOp, key, v, lo, hi int) error {
	if hi > len(ops) {
		hi = len(ops)
	}
	cur := versionAfter(ops, key, lo)
	if cur == v {
		return nil
	}
	for i := lo; i < hi; i++ {
		if ops[i].key == key && ops[i].version == v {
			return nil
		}
	}
	return fmt.Errorf("key %d: read version %d, but ops %d..%d allow only versions from %d on", key, v, lo, hi, cur)
}
