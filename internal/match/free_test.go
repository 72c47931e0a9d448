package match

import (
	"slices"
	"testing"

	"rdffrag/internal/rdf"
)

// TestFreeListTakesBackWholeArraysUpToItsCap: TakeRows hands out arrays of
// a power-of-two class, and the array GiveRows last took back of that
// class; what is of no class — a sub-slice's capacity, an array past the
// largest class — is never kept, nor anything past freeCap. Handing back
// allocates nothing, and under the race detector overwrites the array.
func TestFreeListTakesBackWholeArraysUpToItsCap(t *testing.T) {
	if a := TakeRows(0); cap(a) != 0 {
		t.Fatalf("TakeRows(0) has room for %d IDs", cap(a))
	}
	a := append(TakeRows(5), 1, 2, 3)
	if cap(a) != 8 {
		t.Fatalf("TakeRows(5) has room for %d IDs, want its class, 8", cap(a))
	}
	GiveRows(a)
	if poison != slices.Equal(a[:3], []rdf.ID{poisonID, poisonID, poisonID}) {
		t.Fatalf("a handed-back array reads %v (race detector on: %v)", a[:3], poison)
	}
	if b := TakeRows(7); &b[:1][0] != &a[0] {
		t.Fatal("TakeRows did not hand out the array of its class just taken back")
	}

	odd := make([]rdf.ID, 0, 6)
	GiveRows(odd)
	if b := TakeRows(6); &b[:1][0] == &odd[:1][0] {
		t.Fatal("an array of no class was kept")
	}
	big := TakeRows(1<<maxClass + 1)
	if cap(big) != 1<<maxClass+1 {
		t.Fatalf("past the largest class TakeRows has room for %d IDs, want exactly %d", cap(big), 1<<maxClass+1)
	}
	GiveRows(big)
	if b := TakeRows(1<<maxClass + 1); &b[:1][0] == &big[:1][0] {
		t.Fatal("an array past the largest class was kept")
	}

	for range 2 * freeCap / (4 << maxClass) {
		GiveRows(make([]rdf.ID, 1<<maxClass))
	}
	if rowFree.bytes > freeCap {
		t.Fatalf("the free list holds %d B, past its cap of %d", rowFree.bytes, freeCap)
	}
	for rowFree.class[maxClass-minClass].n > 0 {
		TakeRows(1 << maxClass)
	}

	keep := TakeRows(16)
	if n := testing.AllocsPerRun(100, func() { GiveRows(keep); keep = TakeRows(16) }); n != 0 {
		t.Fatalf("handing back and taking again allocates %.0f times", n)
	}
}

// TestReleaseHandsBackOnlyRecyclableTables: Release empties a Recyclable
// table and hands its array back, once; any other table — a caller's,
// or rows sliced out of a larger array — it leaves as it is.
func TestReleaseHandsBackOnlyRecyclableTables(t *testing.T) {
	rows := append(TakeRows(4), 1, 2, 3, 4)
	b := Recyclable([]string{"x", "y"}, rows, 2)
	b.Release()
	if b.Len() != 0 || b.Rows != nil {
		t.Fatalf("a released table holds %d rows", b.Len())
	}
	b.Release() // a second Release hands nothing back twice
	if got, again := TakeRows(4), TakeRows(4); &got[:1][0] != &rows[0] || &again[:1][0] == &rows[0] {
		t.Fatal("the released array did not go back exactly once")
	}

	whole := []rdf.ID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []*Bindings{NewBindings([]string{"x"}, whole, 8), NewBindings([]string{"x"}, whole[:4:4], 4)} {
		c.Release()
		if c.Len() == 0 || !slices.Equal(whole, []rdf.ID{1, 2, 3, 4, 5, 6, 7, 8}) {
			t.Fatalf("Release of a table not made by Recyclable touched it: %v, %v", c.Rows, whole)
		}
	}
	nullary := Recyclable(nil, nil, 3)
	if nullary.Release(); nullary.Len() != 3 {
		t.Fatalf("a released table without variables counts %d rows, want 3", nullary.Len())
	}
}

// TestGrowRowsHandsBackWhatItOutgrows: GrowRows keeps an array that has
// room, and otherwise copies it into one at least twice as large and
// hands the old one back, for the next taker of its class.
func TestGrowRowsHandsBackWhatItOutgrows(t *testing.T) {
	a := GrowRows(nil, 3)
	if cap(a) != 4 {
		t.Fatalf("GrowRows(nil, 3) has room for %d IDs, want its class, 4", cap(a))
	}
	a = append(a, 1, 2, 3)
	if b := GrowRows(a, 1); &b[:1][0] != &a[0] {
		t.Fatal("GrowRows replaced an array with room")
	}
	grown := GrowRows(a, 2)
	if cap(grown) != 8 || !slices.Equal(grown, []rdf.ID{1, 2, 3}) {
		t.Fatalf("GrowRows past the class holds %v with room for %d, want [1 2 3] with room for 8", grown, cap(grown))
	}
	if b := TakeRows(4); &b[:1][0] != &a[0] {
		t.Fatal("the outgrown array did not go back")
	}
}
