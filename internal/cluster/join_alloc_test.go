package cluster

import (
	"context"
	"slices"
	"testing"

	"rdffrag/internal/match"
)

// TestJoinTableWideFallback: a join sharing five variables — wider than
// the fixed-size keys that once needed a string fallback — goes through
// the one table and still joins correctly.
func TestJoinTableWideFallback(t *testing.T) {
	vars := []string{"a", "b", "c", "d", "e"}
	l := benchTable(8, vars)
	r := benchTable(8, vars) // all 5 columns shared
	out := HashJoin(l, r)
	want := 0
	for _, lr := range tableRows(l) {
		for _, rr := range tableRows(r) {
			if slices.Equal(lr, rr) {
				want++
			}
		}
	}
	if out.Len() != want || want == 0 {
		t.Fatalf("wide join rows = %d, want %d", out.Len(), want)
	}
}

// BenchmarkJoinStreamBatches measures the pipelined symmetric join over
// many batches — the shape the streaming engine actually runs.
func BenchmarkJoinStreamBatches(b *testing.B) {
	lb := benchBatches([]string{"x", "y"}, 2000, 128)
	rb := benchBatches([]string{"y", "z"}, 2000, 128)
	lv, rv := []string{"x", "y"}, []string{"y", "z"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		left := make(chan *match.Bindings, len(lb))
		right := make(chan *match.Bindings, len(rb))
		out := make(chan *match.Bindings, 16)
		for _, x := range lb {
			left <- x
		}
		close(left)
		for _, x := range rb {
			right <- x
		}
		close(right)
		go JoinStream(context.Background(), lv, rv, left, right, out)
		n := 0
		for o := range out {
			n += o.Len()
		}
		if n == 0 {
			b.Fatal("join stream produced nothing")
		}
	}
}
