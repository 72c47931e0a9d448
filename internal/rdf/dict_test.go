package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictRendered: the per-ID rendering kept from intern time is
// Term.String of the term, for every kind and every escaped character.
func TestDictRendered(t *testing.T) {
	d := NewDict()
	terms := []Term{
		NewIRI("http://ex/a"), NewLiteral("plain"), NewBlank("b0"), NewLiteral(""),
		NewLiteral("quote \" backslash \\ newline \n return \r tab \t"), NewLiteral("http://ex/a"),
	}
	for _, term := range terms {
		d.Encode(term)
		d.Encode(term) // re-interning must not render twice
	}
	text := d.Rendered()
	if len(text) != len(terms) || d.Len() != len(terms) {
		t.Fatalf("Rendered holds %d entries for %d terms (Len %d)", len(text), len(terms), d.Len())
	}
	for id, term := range terms {
		if text[id] != term.String() || text[id] != d.Decode(ID(id)).String() {
			t.Errorf("Rendered()[%d] = %q, want %q", id, text[id], term.String())
		}
	}
}

// TestDictRenderedSnapshotUnderWrites: a snapshot taken under one read
// lock stays valid and unchanged while writers keep interning — the
// property result decoding relies on (run under -race).
func TestDictRenderedSnapshotUnderWrites(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		d.MustIRI(fmt.Sprintf("http://ex/%d", i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 5000; i++ {
			d.MustLiteral(fmt.Sprintf("late %d", i))
		}
	}()
	for round := 0; round < 50; round++ {
		text := d.Rendered()
		for id := 0; id < 100; id++ {
			if want := fmt.Sprintf("<http://ex/%d>", id); text[id] != want {
				t.Fatalf("round %d: Rendered()[%d] = %q, want %q", round, id, text[id], want)
			}
		}
	}
	wg.Wait()
	if got := d.Rendered(); len(got) != 5000 || got[4999] != `"late 4999"` {
		t.Fatalf("after writers: %d entries, last %q", len(got), got[len(got)-1])
	}
}
