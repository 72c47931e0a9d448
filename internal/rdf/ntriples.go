package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadNTriples parses a (simplified) N-Triples document, as ScanNTriples
// reads it, into the graph and returns the number of statements read.
func ReadNTriples(g *Graph, r io.Reader) (int, error) {
	return readAll(g, func(fn func(s, p, o Term) error) error { return ScanNTriples(r, fn) })
}

// readAll encodes each statement of a term-level scan against g's
// dictionary and adds them in one addAll once the whole document has
// parsed: a document that fails adds no triple (the terms of the
// statements before the error stay interned, which carries no graph
// state).
func readAll(g *Graph, scan func(fn func(s, p, o Term) error) error) (int, error) {
	var ts []Triple
	err := scan(func(s, p, o Term) error {
		ts = append(ts, Triple{S: g.Dict.Encode(s), P: g.Dict.Encode(p), O: g.Dict.Encode(o)})
		return nil
	})
	if err != nil {
		return 0, err
	}
	n := len(ts)
	g.addAll(ts)
	return n, nil
}

// ScanNTriples parses a (simplified) N-Triples document, handing fn each
// statement's terms in document order; it stops at the first error, fn's
// included. Supported term forms: <iri>, _:blank, "literal" with optional
// ^^<datatype> or @lang suffix (folded into the literal's lexical form).
// Lines starting with '#' and blank lines are skipped.
func ScanNTriples(r io.Reader, fn func(s, p, o Term) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, err := parseNTLine(line)
		if err == nil {
			err = fn(s, p, o)
		}
		if err != nil {
			return fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil { // a read error, or a line over the buffer's limit
		return fmt.Errorf("rdf: line %d: %w", lineNo+1, err)
	}
	return nil
}

func parseNTLine(line string) (s, p, o Term, err error) {
	rest := line
	if s, rest, err = parseNTTerm(rest); err != nil {
		return
	}
	if p, rest, err = parseNTTerm(rest); err != nil {
		return
	}
	if o, rest, err = parseNTTerm(rest); err != nil {
		return
	}
	rest = strings.TrimSpace(rest)
	if rest != "" && rest != "." {
		err = fmt.Errorf("trailing content %q", rest)
	}
	return
}

func parseNTTerm(s string) (Term, string, error) {
	s = strings.TrimLeft(s, " \t")
	if s == "" {
		return Term{}, "", fmt.Errorf("unexpected end of line")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return Term{}, "", fmt.Errorf("unterminated IRI")
		}
		return NewIRI(s[1:end]), s[end+1:], nil
	case '_':
		if len(s) < 2 || s[1] != ':' {
			return Term{}, "", fmt.Errorf("malformed blank node")
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		return NewBlank(s[2:end]), s[end:], nil
	case '"':
		i := 1
		for i < len(s) {
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		if i >= len(s) {
			return Term{}, "", fmt.Errorf("unterminated literal")
		}
		lex := UnescapeLiteral(s[1:i])
		rest := s[i+1:]
		// Fold datatype / language tag into the lexical form so round
		// trips stay lossless enough for matching purposes.
		if strings.HasPrefix(rest, "^^<") {
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return Term{}, "", fmt.Errorf("unterminated datatype IRI")
			}
			rest = rest[end+1:]
		} else if strings.HasPrefix(rest, "@") {
			end := strings.IndexAny(rest, " \t")
			if end < 0 {
				end = len(rest)
			}
			rest = rest[end:]
		}
		return NewLiteral(lex), rest, nil
	}
	return Term{}, "", fmt.Errorf("unexpected character %q", s[0])
}

// WriteNTriples serializes the graph in the order of Graph.Triples:
// (S, P, O) by dictionary ID, not the order a document was read in.
func WriteNTriples(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples() {
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n",
			g.Dict.Decode(t.S), g.Dict.Decode(t.P), g.Dict.Decode(t.O)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
