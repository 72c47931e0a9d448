package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadTurtle parses a Turtle subset into the graph and returns the number
// of triples read; like ReadNTriples, a document that fails to parse adds
// none. Supported: @prefix / PREFIX declarations, @base /
// BASE (resolved by plain concatenation), prefixed names, the 'a'
// keyword, ';' predicate-object lists, ',' object lists, blank node
// labels (_:x), string literals with optional language tag or datatype
// (folded into the lexical form, as in ReadNTriples), integer/decimal
// shorthand literals, and '#' comments. Collections and anonymous blank
// nodes ([...]) are not supported.
func ReadTurtle(g *Graph, r io.Reader) (int, error) {
	return readAll(g, func(l *loader) error {
		data, err := io.ReadAll(r)
		if err != nil {
			return fmt.Errorf("rdf: turtle: %w", err)
		}
		emit := func(s, p, o Term) error {
			l.add(Triple{S: l.term(s), P: l.term(p), O: l.term(o)})
			return nil
		}
		return (&turtleParser{src: string(data), emit: emit, prefixes: map[string]string{}}).run()
	})
}

type turtleParser struct {
	src      string
	pos      int
	emit     func(s, p, o Term) error // receives each triple, in document order
	prefixes map[string]string
	base     string
}

func (p *turtleParser) run() error {
	for {
		p.skipWS()
		if p.eof() {
			return nil
		}
		if err := p.statement(); err != nil {
			return fmt.Errorf("rdf: turtle at offset %d: %w", p.pos, err)
		}
	}
}

func (p *turtleParser) eof() bool { return p.pos >= len(p.src) }

func (p *turtleParser) skipWS() {
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			p.pos++
		case c == '#':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *turtleParser) statement() error {
	if p.hasKeyword("@prefix") || p.hasKeyword("PREFIX") {
		return p.prefixDecl()
	}
	if p.hasKeyword("@base") || p.hasKeyword("BASE") {
		return p.baseDecl()
	}
	return p.triples()
}

// hasKeyword checks (case-sensitively for @-forms, insensitively for
// SPARQL-style forms) without consuming.
func (p *turtleParser) hasKeyword(kw string) bool {
	if p.pos+len(kw) > len(p.src) {
		return false
	}
	seg := p.src[p.pos : p.pos+len(kw)]
	if kw[0] == '@' {
		return seg == kw
	}
	return strings.EqualFold(seg, kw)
}

func (p *turtleParser) consume(n int) { p.pos += n }

func (p *turtleParser) prefixDecl() error {
	atForm := p.src[p.pos] == '@'
	if atForm {
		p.consume(len("@prefix"))
	} else {
		p.consume(len("PREFIX"))
	}
	p.skipWS()
	// prefix name up to ':'
	start := p.pos
	for !p.eof() && p.src[p.pos] != ':' {
		p.pos++
	}
	if p.eof() {
		return fmt.Errorf("prefix declaration missing ':'")
	}
	name := strings.TrimSpace(p.src[start:p.pos])
	p.pos++ // ':'
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	p.skipWS()
	if atForm {
		if p.eof() || p.src[p.pos] != '.' {
			return fmt.Errorf("@prefix must end with '.'")
		}
		p.pos++
	} else if !p.eof() && p.src[p.pos] == '.' {
		p.pos++ // tolerate a trailing dot on SPARQL-style PREFIX
	}
	return nil
}

func (p *turtleParser) baseDecl() error {
	atForm := p.src[p.pos] == '@'
	if atForm {
		p.consume(len("@base"))
	} else {
		p.consume(len("BASE"))
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.base = iri
	p.skipWS()
	if atForm {
		if p.eof() || p.src[p.pos] != '.' {
			return fmt.Errorf("@base must end with '.'")
		}
		p.pos++
	} else if !p.eof() && p.src[p.pos] == '.' {
		p.pos++
	}
	return nil
}

func (p *turtleParser) triples() error {
	subj, err := p.term(false)
	if err != nil {
		return err
	}
	for {
		p.skipWS()
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			p.skipWS()
			obj, err := p.term(true)
			if err != nil {
				return err
			}
			if err := p.emit(subj, pred, obj); err != nil {
				return err
			}
			p.skipWS()
			if !p.eof() && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if !p.eof() && p.src[p.pos] == ';' {
			p.pos++
			p.skipWS()
			// Tolerate trailing ';' before '.'.
			if !p.eof() && p.src[p.pos] == '.' {
				break
			}
			continue
		}
		break
	}
	p.skipWS()
	if p.eof() || p.src[p.pos] != '.' {
		return fmt.Errorf("triple statement missing terminating '.'")
	}
	p.pos++
	return nil
}

func (p *turtleParser) predicate() (Term, error) {
	if !p.eof() && p.src[p.pos] == 'a' {
		// 'a' must be followed by whitespace or a term opener.
		if p.pos+1 < len(p.src) {
			c := p.src[p.pos+1]
			if c == ' ' || c == '\t' || c == '<' || c == '"' || c == '_' {
				p.pos++
				return NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), nil
			}
		}
	}
	return p.term(false)
}

func (p *turtleParser) term(allowLiteral bool) (Term, error) {
	p.skipWS()
	if p.eof() {
		return Term{}, fmt.Errorf("unexpected end of input")
	}
	switch c := p.src[p.pos]; {
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case c == '_':
		if p.pos+1 >= len(p.src) || p.src[p.pos+1] != ':' {
			return Term{}, fmt.Errorf("malformed blank node")
		}
		p.pos += 2
		start := p.pos
		for !p.eof() && isTurtleNameChar(p.src[p.pos]) {
			p.pos++
		}
		return NewBlank(p.src[start:p.pos]), nil
	case c == '"':
		if !allowLiteral {
			return Term{}, fmt.Errorf("literal not allowed here")
		}
		return p.literal()
	case c >= '0' && c <= '9' || c == '-' || c == '+':
		if !allowLiteral {
			return Term{}, fmt.Errorf("numeric literal not allowed here")
		}
		start := p.pos
		p.pos++
		for !p.eof() && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			// A '.' followed by non-digit terminates the statement.
			if p.src[p.pos] == '.' && (p.pos+1 >= len(p.src) || p.src[p.pos+1] < '0' || p.src[p.pos+1] > '9') {
				break
			}
			p.pos++
		}
		return NewLiteral(p.src[start:p.pos]), nil
	default:
		return p.prefixedName()
	}
}

func (p *turtleParser) iriRef() (string, error) {
	if p.eof() || p.src[p.pos] != '<' {
		return "", fmt.Errorf("expected '<'")
	}
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return "", fmt.Errorf("unterminated IRI")
	}
	iri := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if p.base != "" && !strings.Contains(iri, "://") && !strings.HasPrefix(iri, "urn:") {
		iri = p.base + iri
	}
	return iri, nil
}

func (p *turtleParser) literal() (Term, error) {
	// Triple-quoted long strings.
	if strings.HasPrefix(p.src[p.pos:], `"""`) {
		end := strings.Index(p.src[p.pos+3:], `"""`)
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated long literal")
		}
		lex := p.src[p.pos+3 : p.pos+3+end]
		p.pos += end + 6
		p.skipLiteralSuffix()
		return NewLiteral(lex), nil
	}
	i := p.pos + 1
	for i < len(p.src) {
		if p.src[i] == '\\' {
			i += 2
			continue
		}
		if p.src[i] == '"' {
			break
		}
		i++
	}
	if i >= len(p.src) {
		return Term{}, fmt.Errorf("unterminated literal")
	}
	lex := UnescapeLiteral(p.src[p.pos+1 : i])
	p.pos = i + 1
	p.skipLiteralSuffix()
	return NewLiteral(lex), nil
}

// skipLiteralSuffix consumes an optional @lang or ^^<datatype> / ^^pfx:l.
func (p *turtleParser) skipLiteralSuffix() {
	if p.eof() {
		return
	}
	if p.src[p.pos] == '@' {
		p.pos++
		for !p.eof() && (isTurtleNameChar(p.src[p.pos]) || p.src[p.pos] == '-') {
			p.pos++
		}
		return
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		if !p.eof() && p.src[p.pos] == '<' {
			if end := strings.IndexByte(p.src[p.pos:], '>'); end >= 0 {
				p.pos += end + 1
			}
			return
		}
		for !p.eof() && (isTurtleNameChar(p.src[p.pos]) || p.src[p.pos] == ':') {
			p.pos++
		}
	}
}

func (p *turtleParser) prefixedName() (Term, error) {
	start := p.pos
	for !p.eof() && (isTurtleNameChar(p.src[p.pos]) || p.src[p.pos] == ':') {
		p.pos++
	}
	word := p.src[start:p.pos]
	idx := strings.IndexByte(word, ':')
	if idx < 0 {
		return Term{}, fmt.Errorf("expected term, got %q", word)
	}
	pfx, local := word[:idx], word[idx+1:]
	baseIRI, ok := p.prefixes[pfx]
	if !ok {
		return Term{}, fmt.Errorf("undeclared prefix %q", pfx)
	}
	return NewIRI(baseIRI + local), nil
}

// WriteTurtle serializes the graph as Turtle, grouping triples by subject
// with ';' predicate lists. Terms are written in N-Triples syntax (no
// prefix compression), so any Turtle parser can read the output.
func WriteTurtle(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	ts := g.Triples() // (S, P, O) order: a subject's triples are together
	for i, t := range ts {
		if i == 0 || ts[i-1].S != t.S {
			if _, err := fmt.Fprintf(bw, "%s ", g.Dict.Decode(t.S)); err != nil {
				return err
			}
		}
		sep := " ;\n    "
		if i == len(ts)-1 || ts[i+1].S != t.S {
			sep = " .\n"
		}
		if _, err := fmt.Fprintf(bw, "%s %s%s", g.Dict.Decode(t.P), g.Dict.Decode(t.O), sep); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func isTurtleNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c >= 0x80
}
