package rdf

import (
	"fmt"
	"slices"
	"strings"
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

// FuzzDictEncode: for terms of any kind and value — escaped literals,
// blank nodes, invalid UTF-8, values that read like another kind's
// rendering — Encode, Decode, Lookup and Rendered agree on each term,
// distinct terms get distinct IDs and equal ones the same, a term of no
// known kind is refused, and the fingerprint is that of the decoded
// terms: hashed one by one, and as a second dictionary interning them
// again computes it.
func FuzzDictEncode(f *testing.F) {
	f.Add(uint8(0), "http://ex/a", uint8(1), "http://ex/a", uint8(2), "b0")
	f.Add(uint8(1), "quote \" backslash \\ newline \n", uint8(1), "quote \" backslash \\ newline \n", uint8(0), "x>y")
	f.Add(uint8(1), "\xff\\t", uint8(2), "", uint8(1), "")
	f.Add(uint8(0), "<x", uint8(1), `"x`, uint8(7), "_:x")
	f.Fuzz(func(t *testing.T, k1 uint8, v1 string, k2 uint8, v2 string, k3 uint8, v3 string) {
		d := NewDict()
		for _, seed := range []Term{NewIRI("http://ex/a"), NewLiteral("x"), NewBlank("b0")} {
			d.Encode(seed)
		}
		terms := []Term{{TermKind(k1), v1}, {TermKind(k2), v2}, {TermKind(k3), v3}}
		ids := make([]ID, len(terms))
		for i, term := range terms {
			if term.Kind > Blank {
				if _, ok := d.Lookup(term); ok {
					t.Fatalf("Lookup found %#v, a term of no known kind", term)
				}
				func() {
					defer func() { recover() }()
					d.Encode(term)
					t.Fatalf("Encode accepted %#v, a term of no known kind", term)
				}()
				ids[i] = NoID
				continue
			}
			ids[i] = d.Encode(term)
			if got := d.Decode(ids[i]); got != term {
				t.Fatalf("Decode(Encode(%#v)) = %#v", term, got)
			}
			if id, ok := d.Lookup(term); !ok || id != ids[i] {
				t.Fatalf("Lookup(%#v) = %d, %v; Encode gave %d", term, id, ok, ids[i])
			}
			if r := d.Rendered()[ids[i]]; r != term.String() {
				t.Fatalf("Rendered()[%d] = %q, want %q", ids[i], r, term.String())
			}
			if again := d.Encode(term); again != ids[i] {
				t.Fatalf("re-Encode of %#v gave %d, then %d", term, ids[i], again)
			}
		}
		for i := range terms {
			for j := range i {
				if ids[i] != NoID && ids[j] != NoID && (ids[i] == ids[j]) != (terms[i] == terms[j]) {
					t.Fatalf("%#v and %#v got IDs %d and %d", terms[j], terms[i], ids[j], ids[i])
				}
			}
		}
		n := d.Len()
		h, again := uint64(fnvOffset64), NewDict()
		for id := range ID(n) {
			h = fnvTerm(h, d.Decode(id))
			if again.Encode(d.Decode(id)) != id {
				t.Fatalf("the decoded terms intern to other IDs at %d", id)
			}
		}
		if fp := d.Fingerprint(n); fp != h || fp != again.Fingerprint(n) {
			t.Fatalf("Fingerprint(%d) = %x; the decoded terms hash to %x, and intern to %x", n, fp, h, again.Fingerprint(n))
		}
	})
}

// TestDictRenderedSnapshotUnderWrites: a snapshot taken under one read
// lock stays valid and unchanged while writers keep interning — one term
// at a time through Encode, or a document at a time through a load — the
// property result decoding relies on (run under -race). Each snapshot a
// reader takes is a prefix of the final dictionary, and a term a reader
// looks up is absent or has its final ID.
func TestDictRenderedSnapshotUnderWrites(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		d.Encode(NewIRI(fmt.Sprintf("http://ex/%d", i)))
	}
	var doc strings.Builder
	for i := range 3000 {
		fmt.Fprintf(&doc, "<http://ex/%d> <http://ex/p%d> \"loaded %d\" .\n", i%500, i%5, i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 100; i < 5000; i++ {
			d.Encode(NewLiteral(fmt.Sprintf("late %d", i)))
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := ReadNTriples(NewGraph(d), strings.NewReader(doc.String())); err != nil {
			t.Error(err)
		}
	}()
	probes := []Term{NewLiteral("loaded 2999"), NewIRI("http://ex/p4"), NewLiteral("late 4999")}
	var seen [][]string
	var found [][]ID
	for round := 0; round < 50; round++ {
		text := d.Rendered()
		for id := 0; id < 100; id++ {
			if want := fmt.Sprintf("<http://ex/%d>", id); text[id] != want {
				t.Fatalf("round %d: Rendered()[%d] = %q, want %q", round, id, text[id], want)
			}
		}
		ids := make([]ID, len(probes))
		for i, p := range probes {
			ids[i], _ = d.Lookup(p)
		}
		seen, found = append(seen, text), append(found, ids)
	}
	wg.Wait()
	final := d.Rendered()
	// 500 subjects, 100 of them interned before, 5 predicates, 3000 loaded
	// literals and 4900 late ones.
	if want := 500 + 5 + 3000 + 4900; len(final) != want || d.Len() != want {
		t.Fatalf("after writers: %d entries (Len %d), want %d", len(final), d.Len(), want)
	}
	for round, text := range seen {
		if !slices.Equal(text, final[:len(text)]) {
			t.Fatalf("round %d: a snapshot of %d terms is not a prefix of the final dictionary", round, len(text))
		}
		for i, p := range probes {
			if want, _ := d.Lookup(p); found[round][i] != NoID && found[round][i] != want {
				t.Fatalf("round %d: %v looked up as %d, finally %d", round, p, found[round][i], want)
			}
		}
	}
}
