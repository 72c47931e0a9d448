package wal

import (
	"testing"
	"time"
)

// BenchmarkWALAppend measures the append path per sync policy — the cost
// an update batch pays for durability before its ack. "always" is bound
// by fsync latency, "interval" by the in-memory frame write (group
// commit amortizes the fsync), "none" is the framing floor.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		b.Run(pol.String(), func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), Sync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(KindInsert, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAppendAllocs: a 512-byte Append allocates at most once under every
// sync policy — BenchmarkWALAppend's host-independent half. The frame is
// built in the log's reused buffer, so a second allocation per record is
// a regression on the path every durable update takes.
func TestAppendAllocs(t *testing.T) {
	payload := make([]byte, 512)
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			l := mustOpen(t, testOpts(t, pol))
			defer l.Close()
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := l.Append(KindInsert, payload); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("Append allocates %.2f times per record, want <= 1", allocs)
			}
		})
	}
}

// BenchmarkWALGroupCommitLatency measures the worst extra latency the
// "interval" policy adds before a batch is durable: append, then wait
// for the flusher's fsync to cover it. This is the ack-to-durable window
// a machine crash can lose.
func BenchmarkWALGroupCommitLatency(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), Sync: SyncInterval, FlushInterval: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := []byte("group-commit-latency-probe")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(KindInsert, payload); err != nil {
			b.Fatal(err)
		}
		fsyncs := l.Metrics().Fsyncs
		for l.Metrics().Fsyncs == fsyncs {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if m := l.Metrics(); m.Fsyncs == 0 || m.Appends == 0 {
		b.Fatal("no work recorded")
	}
}
