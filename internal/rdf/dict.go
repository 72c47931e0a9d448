package rdf

import (
	"fmt"
	"strings"
	"sync"
)

// ID is a dense dictionary-encoded identifier for a term.
type ID uint32

// NoID is the invalid identifier.
const NoID = ID(^uint32(0))

// Dict interns RDF terms to dense IDs and back. It keeps one string per
// term, its N-Triples rendering (Term.String): Rendered serves it, the
// intern map is keyed by it, and a decoded term's Value is a substring of
// it — an IRI's between the brackets, a blank node's after the "_:", a
// literal's between the quotes. Only a literal whose rendering escapes a
// character keeps its value a second time, unescaped. It is safe for
// concurrent use; lookups take a read lock, inserts a write lock. A load
// (ReadNTriples, ReadTurtle) holds the write lock for its whole document
// and interns every term under it, so a concurrent reader waits for the
// load and sees the dictionary from before it or after it; Encode still
// locks per term, for the writer's apply and the SPARQL parser.
type Dict struct {
	mu  sync.RWMutex
	ids map[string]ID // rendering → ID
	// text[id] is the rendering of term id, made once when the term is
	// interned so result decoding never concatenates per cell.
	text []string
	// unescaped[id] is the value of literal id when its rendering
	// escapes a character; nil until one does.
	unescaped map[ID]string

	// Prefix-fingerprint cache: the dictionary is append-only, so the
	// fingerprint of terms[0:n] never changes once computed. fpN/fpHash
	// is the rolling FNV state after the first fpN terms, extended as the
	// dictionary grows.
	fpMu   sync.Mutex
	fpN    int
	fpHash uint64
}

// NewDict returns a dictionary holding terms, in order: the i-th distinct
// one gets ID i, and a repeat keeps its first ID, so a dictionary
// shorter than terms says some term came twice. Nothing else can reach
// the dictionary yet, so they are interned without a lock. Like Encode,
// it panics on a term of no known kind.
func NewDict(terms ...Term) *Dict {
	d := &Dict{ids: make(map[string]ID, len(terms))}
	var buf []byte
	for _, t := range terms {
		checkKind(t)
		buf, _ = d.internTerm(buf, t)
	}
	return d
}

// stackTerm is the rendering length Encode and Lookup build on the stack;
// a longer term's rendering is built on the heap.
const stackTerm = 128

// Encode interns t and returns its ID, allocating one if necessary. A
// term already interned costs a lookup and allocates nothing. It panics
// on a term of no known kind, which has no rendering of its own.
func (d *Dict) Encode(t Term) ID {
	checkKind(t)
	var buf [stackTerm]byte
	r := appendTerm(buf[:0], t)
	d.mu.RLock()
	id, ok := d.ids[string(r)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, id = d.internTerm(r, t)
	return id
}

// checkKind panics on a term of no known kind, which has no rendering of
// its own.
func checkKind(t Term) {
	if t.Kind > Blank {
		panic(fmt.Sprintf("rdf: Encode of a term of kind %d", t.Kind))
	}
}

// internTerm interns t, a term of known kind, rendering it into buf,
// which it returns for the next term. The caller holds mu for writing, or
// owns d alone.
func (d *Dict) internTerm(buf []byte, t Term) ([]byte, ID) {
	buf = appendTerm(buf[:0], t)
	unescaped := ""
	if t.Kind == Literal && len(buf) != len(t.Value)+2 { // the rendering escapes a character
		unescaped = t.Value
	}
	return buf, d.intern(buf, unescaped)
}

// intern returns the ID of the term rendered r, giving it the next ID if
// it has none; unescaped is its value when its rendering escapes a
// character of it, and "" otherwise (such a value is never empty). A hit
// allocates nothing. The caller holds mu for writing, or owns d alone.
func (d *Dict) intern(r []byte, unescaped string) ID {
	if id, ok := d.ids[string(r)]; ok {
		return id
	}
	id := ID(len(d.text))
	s := string(r)
	d.ids[s] = id
	d.text = append(d.text, s)
	if unescaped != "" {
		if d.unescaped == nil {
			d.unescaped = make(map[ID]string)
		}
		d.unescaped[id] = strings.Clone(unescaped)
	}
	return id
}

// Lookup returns the ID for t without inserting, NoID if t is absent. The
// second result reports whether the term is present. It allocates nothing
// for a term of up to stackTerm rendered bytes.
func (d *Dict) Lookup(t Term) (ID, bool) {
	if t.Kind > Blank {
		return NoID, false
	}
	var buf [stackTerm]byte
	r := appendTerm(buf[:0], t)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.ids[string(r)]; ok {
		return id, true
	}
	return NoID, false
}

// Decode returns the term for id. It panics if id was not allocated by this
// dictionary, mirroring slice indexing semantics.
func (d *Dict) Decode(id ID) Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.term(id)
}

// term reads term id off its rendering; the caller holds mu.
func (d *Dict) term(id ID) Term {
	r := d.text[id]
	switch r[0] {
	case '<':
		return Term{Kind: IRI, Value: r[1 : len(r)-1]}
	case '_':
		return Term{Kind: Blank, Value: r[2:]}
	}
	if v, ok := d.unescaped[id]; ok {
		return Term{Kind: Literal, Value: v}
	}
	return Term{Kind: Literal, Value: r[1 : len(r)-1]}
}

// Rendered returns the N-Triples form (Term.String) of every term
// interned so far, indexed by ID. The dictionary is append-only, so the
// returned prefix never changes and may be read without further locking:
// a caller decoding many IDs pays for the read lock once, not per term.
func (d *Dict) Rendered() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.text
}

// Len reports the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.text)
}

// FNV-1a parameters (hash/fnv is not used directly: the rolling state
// must be resumable across calls, which the stdlib hash hides).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint hashes the first n interned terms in ID order (FNV-1a
// over each term's kind, length and bytes). Two dictionaries that agree
// on IDs 0..n-1 have equal n-fingerprints, so a fingerprint identifies
// a dictionary prefix: checkpoints stamp it to refuse replay against a
// foreign dictionary, and a site checks that a client's dictionary is a
// prefix of its own before interpreting raw-ID binding rows. n must be
// <= Len. Callers ask about the whole dictionary, whose fingerprint is
// kept: asking again once it has grown hashes only the new terms. A
// shorter prefix is hashed afresh.
func (d *Dict) Fingerprint(n int) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.fpMu.Lock()
	defer d.fpMu.Unlock()
	start, h := 0, uint64(fnvOffset64)
	if d.fpN > 0 && d.fpN <= n {
		start, h = d.fpN, d.fpHash
	}
	for i := start; i < n; i++ {
		h = fnvTerm(h, d.term(ID(i)))
	}
	if n >= d.fpN {
		d.fpN, d.fpHash = n, h
	}
	return h
}

// fnvTerm folds one term into a rolling FNV-1a state. The length
// prefix keeps adjacent terms from sliding into each other.
func fnvTerm(h uint64, t Term) uint64 {
	h = (h ^ uint64(t.Kind)) * fnvPrime64
	n := uint32(len(t.Value))
	for shift := 0; shift < 32; shift += 8 {
		h = (h ^ uint64(byte(n>>shift))) * fnvPrime64
	}
	for i := 0; i < len(t.Value); i++ {
		h = (h ^ uint64(t.Value[i])) * fnvPrime64
	}
	return h
}

// String renders an ID for debugging.
func (d *Dict) String() string {
	return fmt.Sprintf("Dict(%d terms)", d.Len())
}
