package rdf

import (
	"fmt"
	"testing"
)

func fpDict(n int) *Dict {
	d := NewDict()
	for i := 0; i < n; i++ {
		d.Encode(NewIRI(fmt.Sprintf("http://example.org/t%d", i)))
	}
	return d
}

func TestFingerprintDeterministic(t *testing.T) {
	a, b := fpDict(20), fpDict(20)
	for _, n := range []int{0, 1, 7, 20} {
		if a.Fingerprint(n) != b.Fingerprint(n) {
			t.Fatalf("prefix %d: identical dictionaries hash differently", n)
		}
	}
	if a.Fingerprint(0) == a.Fingerprint(20) {
		t.Fatal("empty and full prefixes collide")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := fpDict(10)
	// Same length, one term different.
	b := NewDict()
	for i := 0; i < 10; i++ {
		if i == 4 {
			b.Encode(NewIRI("http://example.org/OTHER"))
		} else {
			b.Encode(NewIRI(fmt.Sprintf("http://example.org/t%d", i)))
		}
	}
	if a.Fingerprint(10) != b.Fingerprint(10) && a.Fingerprint(4) == b.Fingerprint(4) {
		// Prefixes before the divergence agree; after it they must not.
	} else {
		t.Fatalf("fingerprint not sensitive to term content at the right position")
	}
	// Term kind matters, not just value: an IRI and a literal with the
	// same text must hash differently.
	c, d := NewDict(), NewDict()
	c.Encode(Term{Kind: IRI, Value: "x"})
	d.Encode(Term{Kind: Literal, Value: "x"})
	if c.Fingerprint(1) == d.Fingerprint(1) {
		t.Fatal("IRI vs literal of the same value collide")
	}
	// Length framing: ["ab","c"] must not collide with ["a","bc"].
	e, f := NewDict(), NewDict()
	e.Encode(NewIRI("ab"))
	e.Encode(NewIRI("c"))
	f.Encode(NewIRI("a"))
	f.Encode(NewIRI("bc"))
	if e.Fingerprint(2) == f.Fingerprint(2) {
		t.Fatal("concatenation ambiguity: length framing is broken")
	}
}

// TestFingerprintPrefixStableAcrossGrowth is the property the transport
// and WAL rely on: the dictionary is append-only, so a prefix
// fingerprint taken before later interning still verifies.
func TestFingerprintPrefixStableAcrossGrowth(t *testing.T) {
	d := fpDict(5)
	fp5 := d.Fingerprint(5)
	for i := 0; i < 100; i++ {
		d.Encode(NewIRI(fmt.Sprintf("http://example.org/extra%d", i)))
	}
	if d.Fingerprint(5) != fp5 {
		t.Fatal("prefix fingerprint changed after append-only growth")
	}
}

// TestFingerprintRollingMatchesFresh: the incremental (rolling)
// computation must agree with hashing from scratch in any query order.
func TestFingerprintRollingMatchesFresh(t *testing.T) {
	d := fpDict(50)
	// Out-of-order queries exercise the rolling state and the
	// restart-from-zero path (n < fpN forces a fresh walk).
	order := []int{50, 10, 30, 10, 50, 1, 49, 0, 25, 50}
	got := make(map[int]uint64)
	for _, n := range order {
		fp := d.Fingerprint(n)
		if prev, ok := got[n]; ok && prev != fp {
			t.Fatalf("prefix %d: unstable across queries (%x vs %x)", n, prev, fp)
		}
		got[n] = fp
	}
	// An independently built identical dictionary, queried ascending,
	// must agree with every answer.
	fresh := fpDict(50)
	for n, fp := range got {
		if fresh.Fingerprint(n) != fp {
			t.Fatalf("prefix %d: rolling result diverges from fresh dictionary", n)
		}
	}
}
