package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"rdffrag/internal/rdf"
)

// TestRowSetMatchesStringKeys: the row set must accept and reject exactly
// the rows a string-keyed set would, at every width — five and seven
// columns, which once took a string fallback, included — while its slot
// table doubles several times.
func TestRowSetMatchesStringKeys(t *testing.T) {
	for _, width := range []int{1, 2, 4, 5, 7} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(width)))
			set := rowSet{w: width}
			var rows []rdf.ID
			oracle := make(map[string]bool)
			for i := 0; i < 2000; i++ {
				row := make([]rdf.ID, width)
				for j := range row {
					row[j] = rdf.ID(r.Intn(5)) // small domain: plenty of duplicates
				}
				key := fmt.Sprint(row)
				want := !oracle[key]
				oracle[key] = true
				rows = append(rows, row...)
				got := set.insert(rows)
				if !got {
					rows = rows[:len(rows)-width]
				}
				if got != want || set.n != len(oracle) || len(rows) != set.n*width {
					t.Fatalf("insert(%v) = %v, want %v; %d distinct of %d", row, got, want, set.n, len(oracle))
				}
			}
		})
	}
}

// TestRowSetAllocs: inserting an already-seen row must not allocate — the
// point of comparing rows where they lie.
func TestRowSetAllocs(t *testing.T) {
	set := rowSet{w: 3}
	rows := []rdf.ID{1, 2, 3, 1, 2, 3}
	set.insert(rows[:3])
	allocs := testing.AllocsPerRun(1000, func() {
		if set.insert(rows) {
			t.Fatal("a seen row was taken for new")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate insert allocates %.1f per run, want 0", allocs)
	}
}
