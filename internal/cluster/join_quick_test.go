package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// table builds the binding table of the given rows over vars.
func table(vars []string, rows ...[]rdf.ID) *match.Bindings {
	return match.NewBindings(vars, slices.Concat(rows...), len(rows))
}

// tableRows lists a table's rows; an empty tuple is an empty row.
func tableRows(b *match.Bindings) [][]rdf.ID {
	w := len(b.Vars)
	rows := make([][]rdf.ID, b.Len())
	for i := range rows {
		rows[i] = b.Rows[i*w : (i+1)*w]
	}
	return rows
}

// randomBindings builds a small random binding table over the given vars.
func randomBindings(seed int64, vars []string, rows int) *match.Bindings {
	r := rand.New(rand.NewSource(seed))
	b := &match.Bindings{Vars: vars}
	for i := 0; i < rows*len(vars); i++ {
		b.Rows = append(b.Rows, rdf.ID(r.Intn(4)))
	}
	return b
}

// canonicalRows renders a binding table as a sorted multiset of
// var=value strings, so tables can be compared independent of row and
// column order.
func canonicalRows(b *match.Bindings) []string {
	out := make([]string, 0, b.Len())
	order := make([]int, len(b.Vars))
	names := append([]string(nil), b.Vars...)
	sort.Strings(names)
	pos := map[string]int{}
	for i, v := range b.Vars {
		pos[v] = i
	}
	for i, v := range names {
		order[i] = pos[v]
	}
	for _, r := range tableRows(b) {
		s := ""
		for i, v := range names {
			s += v + "=" + string(rune('0'+int(r[order[i]]))) + ";"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func equalMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHashJoinCommutativeProperty: A ⋈ B ≡ B ⋈ A up to column order.
func TestHashJoinCommutativeProperty(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomBindings(s1, []string{"x", "y"}, 6)
		b := randomBindings(s2, []string{"y", "z"}, 6)
		ab := HashJoin(a, b)
		ba := HashJoin(b, a)
		return equalMultiset(canonicalRows(ab), canonicalRows(ba))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestHashJoinAssociativeProperty: (A ⋈ B) ⋈ C ≡ A ⋈ (B ⋈ C).
func TestHashJoinAssociativeProperty(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		a := randomBindings(s1, []string{"x", "y"}, 5)
		b := randomBindings(s2, []string{"y", "z"}, 5)
		c := randomBindings(s3, []string{"z", "w"}, 5)
		l := HashJoin(HashJoin(a, b), c)
		r := HashJoin(a, HashJoin(b, c))
		return equalMultiset(canonicalRows(l), canonicalRows(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHashJoinMatchesNestedLoopProperty: the hash join agrees with a
// naive nested-loop join oracle.
func TestHashJoinMatchesNestedLoopProperty(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomBindings(s1, []string{"x", "y"}, 6)
		b := randomBindings(s2, []string{"y", "z"}, 6)
		got := HashJoin(a, b)
		var oracle match.Bindings
		oracle.Vars = []string{"x", "y", "z"}
		for _, ra := range tableRows(a) {
			for _, rb := range tableRows(b) {
				if ra[1] == rb[0] {
					oracle.Rows = append(oracle.Rows, ra[0], ra[1], rb[1])
				}
			}
		}
		return equalMultiset(canonicalRows(got), canonicalRows(&oracle))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestProjectThenProjectProperty: projecting twice equals projecting once
// onto the narrower set.
func TestProjectThenProjectProperty(t *testing.T) {
	f := func(s int64) bool {
		a := randomBindings(s, []string{"x", "y", "z"}, 8)
		p1 := Project(Project(a, []string{"x", "y"}), []string{"x"})
		p2 := Project(a, []string{"x"})
		return equalMultiset(canonicalRows(p1), canonicalRows(p2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
