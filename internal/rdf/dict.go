package rdf

import (
	"fmt"
	"sync"
)

// ID is a dense dictionary-encoded identifier for a term.
type ID uint32

// NoID is the invalid identifier.
const NoID = ID(^uint32(0))

// Dict interns RDF terms to dense IDs and back. It is safe for concurrent
// use; lookups take a read lock, inserts a write lock.
type Dict struct {
	mu    sync.RWMutex
	byKey map[string]ID
	terms []Term
	// text[id] is terms[id].String(), rendered once when the term is
	// interned so result decoding never concatenates per cell.
	text []string

	// Prefix-fingerprint cache: the dictionary is append-only, so the
	// fingerprint of terms[0:n] never changes once computed. fpN/fpHash
	// is the rolling FNV state after the first fpN terms (extended
	// incrementally as the dictionary grows); fpMemo remembers exact
	// answers for the prefix lengths callers keep asking about.
	fpMu   sync.Mutex
	fpN    int
	fpHash uint64
	fpMemo map[int]uint64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byKey: make(map[string]ID)}
}

// Encode interns t and returns its ID, allocating one if necessary.
func (d *Dict) Encode(t Term) ID {
	key := t.Key()
	d.mu.RLock()
	id, ok := d.byKey[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.byKey[key]; ok {
		return id
	}
	id = ID(len(d.terms))
	d.byKey[key] = id
	d.terms = append(d.terms, t)
	d.text = append(d.text, t.String())
	return id
}

// Lookup returns the ID for t without inserting. The second result reports
// whether the term is present.
func (d *Dict) Lookup(t Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byKey[t.Key()]
	return id, ok
}

// Decode returns the term for id. It panics if id was not allocated by this
// dictionary, mirroring slice indexing semantics.
func (d *Dict) Decode(id ID) Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[id]
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
	return len(d.terms)
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
// foreign dictionary, and the transport verifies the shared prefix
// before interpreting raw-ID binding rows. n must be <= Len. Computed
// fingerprints are cached — the dictionary is append-only, so a prefix
// fingerprint never changes.
func (d *Dict) Fingerprint(n int) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.fpMu.Lock()
	defer d.fpMu.Unlock()
	if h, ok := d.fpMemo[n]; ok {
		return h
	}
	start, h := 0, uint64(fnvOffset64)
	if d.fpN > 0 && d.fpN <= n {
		start, h = d.fpN, d.fpHash
	}
	for i := start; i < n; i++ {
		h = fnvTerm(h, d.terms[i])
	}
	if n >= d.fpN {
		d.fpN, d.fpHash = n, h
	}
	if d.fpMemo == nil || len(d.fpMemo) > 4096 {
		d.fpMemo = make(map[int]uint64)
	}
	d.fpMemo[n] = h
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

// MustIRI interns an IRI given by its lexical value.
func (d *Dict) MustIRI(v string) ID { return d.Encode(NewIRI(v)) }

// MustLiteral interns a literal given by its lexical value.
func (d *Dict) MustLiteral(v string) ID { return d.Encode(NewLiteral(v)) }

// String renders an ID for debugging.
func (d *Dict) String() string {
	return fmt.Sprintf("Dict(%d terms)", d.Len())
}
