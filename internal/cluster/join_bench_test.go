package cluster

import (
	"context"
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

// benchBatches cuts benchTable(rows, vars) into batches of batch rows.
func benchBatches(vars []string, rows, batch int) []*match.Bindings {
	var out []*match.Bindings
	t := benchTable(rows, vars)
	for i := 0; i < rows; i += batch {
		out = append(out, &match.Bindings{Vars: vars, Rows: t.Rows[i*len(vars) : min(i+batch, rows)*len(vars)]})
	}
	return out
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
// batches — the shape the streaming engine actually runs.
func BenchmarkJoinStream(b *testing.B) {
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

func BenchmarkUnionDedup(b *testing.B) {
	x := benchTable(3000, []string{"x", "y"})
	y := benchTable(3000, []string{"x", "y"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Union(x, y)
	}
}
