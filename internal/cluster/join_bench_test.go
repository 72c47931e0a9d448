package cluster

import (
	"testing"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

func benchTable(n int, vars []string) *match.Bindings {
	b := &match.Bindings{Vars: vars}
	for i := 0; i < n; i++ {
		for j := range vars {
			b.Rows = append(b.Rows, rdf.ID((i*7+j*13)%97))
		}
	}
	return b
}

func BenchmarkHashJoin(b *testing.B) {
	l := benchTable(2000, []string{"x", "y"})
	r := benchTable(2000, []string{"y", "z"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashJoin(l, r)
	}
}

// BenchmarkJoinStream measures the pipelined symmetric join over many
// batches — the shape the streaming engine actually runs — with one
// producer pushing each side whole in turn.
func BenchmarkJoinStream(b *testing.B) {
	lv, rv := []string{"x", "y"}, []string{"y", "z"}
	lt, rt := benchTable(2000, lv), benchTable(2000, rv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A join hands back the batches it receives: each gets its own.
		b.StopTimer()
		lb, rb := batchesOf(lt, 128), batchesOf(rt, 128)
		out := &collector{}
		b.StartTimer()
		j := NewJoiner(lv, rv, out)
		for _, x := range lb {
			j.Push(x, true)
		}
		j.Close(true)
		for _, x := range rb {
			j.Push(x, false)
		}
		j.Close(false)
		if len(out.kept) == 0 {
			b.Fatal("join stream produced nothing")
		}
	}
}
