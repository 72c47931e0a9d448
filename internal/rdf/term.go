// Package rdf implements the RDF data model used throughout the repository:
// terms, dictionary encoding, triples and an in-memory indexed RDF graph
// (Definition 1 of the paper). All strings are interned through a Dict so
// the rest of the system works on dense integer IDs.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind classifies an RDF term.
type TermKind uint8

const (
	// IRI is an absolute or prefixed IRI reference, e.g. <http://ex/a>.
	IRI TermKind = iota
	// Literal is an RDF literal, e.g. "Aristotle" (datatype/lang folded in).
	Literal
	// Blank is a blank node, e.g. _:b1.
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	}
	return fmt.Sprintf("TermKind(%d)", uint8(k))
}

// Term is a single RDF term. Value holds the lexical form without
// surrounding syntax markers (no angle brackets, no quotes).
type Term struct {
	Kind  TermKind
	Value string
}

// NewIRI returns an IRI term.
func NewIRI(v string) Term { return Term{Kind: IRI, Value: v} }

// NewLiteral returns a literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewBlank returns a blank-node term.
func NewBlank(v string) Term { return Term{Kind: Blank, Value: v} }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [64]byte
	return string(appendTerm(buf[:0], t))
}

// appendTerm appends the term's N-Triples rendering to dst: a term of no
// known kind renders as its bare value.
func appendTerm(dst []byte, t Term) []byte {
	switch t.Kind {
	case IRI:
		return append(append(append(dst, '<'), t.Value...), '>')
	case Literal:
		return append(appendEscaped(append(dst, '"'), t.Value), '"')
	case Blank:
		return append(append(dst, "_:"...), t.Value...)
	}
	return append(dst, t.Value...)
}

// appendEscaped appends s to dst with the N-Triples literal escapes.
func appendEscaped(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ { // bytes, not runes: what is not valid UTF-8 stays what it was
		switch c := s[i]; c {
		case '"':
			dst = append(dst, `\"`...)
		case '\\':
			dst = append(dst, `\\`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// UnescapeLiteral reverses the N-Triples literal escapes Term.String
// writes (\" \\ \n \r \t); any other backslash sequence is kept as is.
func UnescapeLiteral(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
