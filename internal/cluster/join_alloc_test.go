package cluster

import (
	"slices"
	"testing"
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
