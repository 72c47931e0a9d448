package rdffrag

// Atomic overwrite batches through the public API: Overwrite replaces
// one triple set with another under a single WAL record and a single
// MVCC publish. What an overwrite leaves and answers — delete-then-insert
// overlap keeping the triple included — is the model's to say
// (lockstep_test.go); these tests pin the errors and no-ops of empty
// sides, the WAL payload framing round-trip, the durable recovery of
// overwrite records, and TTL expiry riding the same durable delete path.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
)

const owProbe = `SELECT ?n ?i WHERE { <OWSubj> <name> ?n . <OWSubj> <interest> ?i . }`

func owDoc(v int) string {
	return fmt.Sprintf("<OWSubj> <name> \"ow v%d\" .\n<OWSubj> <interest> <OWI%d> .\n", v, v)
}

// TestServerOverwriteEmptySides: an overwrite with both sides empty is
// the client's mistake; a delete side of never-seen terms alone stays off
// the writer path; a malformed side rejects the batch whole. Either side
// alone, and what an overwrite leaves and answers, is the lockstep runs'
// to check.
func TestServerOverwriteEmptySides(t *testing.T) {
	dep := deploySoak(t, 3, 30)
	srv := dep.StartServer(ServerConfig{Workers: 2})
	defer srv.Close()

	// Both sides empty is the client's mistake.
	if _, err := srv.Overwrite(context.Background(), "", "", 0); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("both-empty overwrite: err %v, want ErrBadUpdate", err)
	}
	// A delete side referencing only never-seen terms with nothing to
	// insert is a whole-batch no-op, not an error — and it must stay off
	// the writer path (Seq 0 even on durable servers).
	st, err := srv.Overwrite(context.Background(), "<NeverSeen> <nope> <Nothing> .\n", "", 0)
	if err != nil || st.Added != 0 || st.Deleted != 0 || st.Seq != 0 {
		t.Fatalf("unknown-term overwrite: stats %+v, err %v, want a clean no-op", st, err)
	}
	// Malformed N-Triples on either side rejects the batch whole.
	if _, err := srv.Overwrite(context.Background(), "<a> <b> junk\n", owDoc(1), 0); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("malformed delete side: err %v, want ErrBadUpdate", err)
	}
	if _, err := srv.Overwrite(context.Background(), "", "<a> <b> junk\n", 0); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("malformed insert side: err %v, want ErrBadUpdate", err)
	}
}

// TestOverwritePayloadFraming: the WAL batch payload round-trips both
// sides and the deadline — to the microsecond, as far out as the longest
// Go duration reaches — and rejects truncated or corrupt frames instead of
// mis-splitting them. Decoding adds no term to the dictionary.
func TestOverwritePayloadFraming(t *testing.T) {
	d := rdf.NewDict()
	stmts := func(doc string) [][3]rdf.Term {
		sts, err := parseStatements(doc)
		if err != nil {
			t.Fatal(err)
		}
		return sts
	}
	present := func(doc string) []rdf.Triple { // doc's triples, interned
		var ts []rdf.Triple
		for _, st := range stmts(doc) {
			ts = append(ts, rdf.Triple{S: d.Encode(st[0]), P: d.Encode(st[1]), O: d.Encode(st[2])})
		}
		return ts
	}
	far := time.Now().Add(time.Duration(math.MaxInt64)).Truncate(time.Microsecond)
	for _, b := range []serve.Batch{
		{Del: present("<a> <b> <c> .\n"), Ins: stmts("<d> <e> <f> .\n")},
		{Ins: stmts("<d> <e> <f> .\n<d> <e> \"g\" .\n"), Deadline: time.UnixMicro(1_700_000_000_000_001)},
		{Del: present("<a> <b> <c> .\n")},
		{Ins: stmts("<far> <e> <f> .\n"), Deadline: far},
		{},
	} {
		n := d.Len()
		got, err := decodeBatch(d, encodeBatch(d, b))
		if err != nil || !slices.Equal(got.Del, b.Del) || !slices.Equal(got.Ins, b.Ins) || !got.Deadline.Equal(b.Deadline) {
			t.Fatalf("round-trip of %+v: got %+v, err %v", b, got, err)
		}
		if d.Len() != n {
			t.Fatalf("decoding %+v interned %d terms", b, d.Len()-n)
		}
	}
	if !far.After(time.Now().AddDate(290, 0, 0)) {
		t.Fatalf("the longest TTL's deadline %v is not centuries out", far)
	}
	if _, err := decodeBatch(d, []byte{1, 0}); err == nil {
		t.Fatal("short payload accepted")
	}
	// Length prefix pointing past the payload's end.
	bad := encodeBatch(d, serve.Batch{Del: present("<a> <b> <c> .\n")})
	bad[8] = 200
	if _, err := decodeBatch(d, bad); err == nil {
		t.Fatal("overlong delete-side length accepted")
	}
}

// FuzzDecodeBatch: whatever the payload, decodeBatch does not panic, adds
// no term to the dictionary and slices nothing from a length prefix the
// bytes do not back; a payload it accepts encodes back to one that
// decodes to the same batch.
func FuzzDecodeBatch(f *testing.F) {
	d := rdf.NewDict()
	s, p, v1 := d.Encode(rdf.NewIRI("s")), d.Encode(rdf.NewIRI("p")), d.Encode(rdf.NewLiteral("v1"))
	ins := func(o string) [][3]rdf.Term {
		return [][3]rdf.Term{{rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral(o)}}
	}
	f.Add(encodeBatch(d, serve.Batch{Ins: ins("v1"), Deadline: time.UnixMicro(1_700_000_000_000_000)}))
	f.Add(encodeBatch(d, serve.Batch{Del: []rdf.Triple{{S: s, P: p, O: v1}}, Ins: ins("v2")}))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff<a> <b> <c> ."))
	n := d.Len()
	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := decodeBatch(d, p)
		if d.Len() != n {
			t.Fatalf("decoding %q interned %d terms", p, d.Len()-n)
		}
		if err != nil {
			return
		}
		again, err := decodeBatch(d, encodeBatch(d, b))
		if err != nil || !slices.Equal(again.Del, b.Del) || !slices.Equal(again.Ins, b.Ins) || !again.Deadline.Equal(b.Deadline) {
			t.Fatalf("decoded %+v, which encodes to %+v (err %v)", b, again, err)
		}
	})
}

// TestDurableOverwriteRecovery: overwrite batches survive a crash as one
// record — recovery replays the whole swap, reproducing the pre-crash
// answers, and the replayed-record count reconciles with the log.
func TestDurableOverwriteRecovery(t *testing.T) {
	dir := t.TempDir()
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "always"})
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d})

	const inserts, swaps = 4, 6
	for i := 0; i < inserts; i++ {
		if _, err := srv.Update(context.Background(), durableUpdate(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Each swap retargets person (v-1)%inserts's interest: delete the old
	// interest triple, insert a new one, atomically.
	for v := 1; v <= swaps; v++ {
		p := (v - 1) % inserts
		del := fmt.Sprintf("<U%d> <interest> <I%d> .\n", p, p%5)
		if v > inserts {
			del = fmt.Sprintf("<U%d> <interest> <SwapI%d> .\n", p, v-inserts)
		}
		ins := fmt.Sprintf("<U%d> <interest> <SwapI%d> .\n", p, v)
		st, err := srv.Overwrite(context.Background(), del, ins, 0)
		if err != nil {
			t.Fatalf("swap %d: %v", v, err)
		}
		if st.Seq != uint64(inserts+v) {
			t.Fatalf("swap %d: seq %d, want %d (one WAL record per overwrite)", v, st.Seq, inserts+v)
		}
	}
	oracle := queryRows(t, srv, durableProbe)
	// Abandon without Close: sync=always owes us every acked batch.

	d2, dep2 := recovered(t, DurabilityConfig{Dir: dir, Sync: "always"})
	if want := uint64(inserts + swaps); d2.ReplayedRecords() != want {
		t.Fatalf("replayed %d records, want %d", d2.ReplayedRecords(), want)
	}
	srv2 := dep2.StartServer(ServerConfig{Workers: 2, Durable: d2})
	defer srv2.Close()
	if got := queryRows(t, srv2, durableProbe); strings.Join(got, "\n") != strings.Join(oracle, "\n") {
		t.Fatalf("recovered answers diverge:\ngot  %v\nwant %v", got, oracle)
	}
}

// TestServerTTLSweepDurable: a TTL-stamped insert expires through the
// sweeper as a durable delete — the sweep appends a WAL record, so the
// expiry survives recovery; sweep metrics move.
func TestServerTTLSweepDurable(t *testing.T) {
	dir := t.TempDir()
	d, dep := bootstrapped(t, DurabilityConfig{Dir: dir, Sync: "always"})
	// Background sweeper disabled: the test drives expiry deterministically.
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d, SweepInterval: -1})

	if _, err := srv.UpdateTTL(context.Background(), owDoc(1), time.Millisecond); err != nil {
		t.Fatalf("UpdateTTL: %v", err)
	}
	seqBefore := srv.Metrics().WAL.LastSeq
	time.Sleep(5 * time.Millisecond)
	if n := srv.Sweep(); n != 2 {
		t.Fatalf("Sweep removed %d triples, want 2", n)
	}
	if srv.Metrics().WAL.LastSeq != seqBefore+1 {
		t.Fatalf("sweep did not log its delete batch: seq %d -> %d", seqBefore, srv.Metrics().WAL.LastSeq)
	}
	m := srv.Metrics()
	if m.SweepRuns != 1 || m.SweptTriples != 2 {
		t.Fatalf("sweep metrics: runs=%d swept=%d, want 1/2", m.SweepRuns, m.SweptTriples)
	}
	oracle := queryRows(t, srv, durableProbe)
	// The expiry is durable: recover (abandon, no Close) and the swept
	// triples must stay gone.
	d2, dep2 := recovered(t, DurabilityConfig{Dir: dir, Sync: "always"})
	srv2 := dep2.StartServer(ServerConfig{Workers: 2, Durable: d2})
	defer srv2.Close()
	if rows := queryRows(t, srv2, owProbe); len(rows) != 0 {
		t.Fatalf("swept triples resurrected by recovery: %v", rows)
	}
	if got := queryRows(t, srv2, durableProbe); strings.Join(got, "\n") != strings.Join(oracle, "\n") {
		t.Fatal("recovered answers diverge after a durable sweep")
	}
}
