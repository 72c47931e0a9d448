package sparql

import (
	"fmt"
	"strings"

	"rdffrag/internal/rdf"
)

// Parser turns SPARQL SELECT queries into query graphs. FILTER clauses are
// skipped per the paper ("we ignore FILTER statements"); OPTIONAL, UNION
// and property paths are rejected.
type Parser struct {
	dict   *rdf.Dict
	lookup bool // resolve constants with Lookup, not Encode
}

// NewParser returns a parser interning constants into d, for the workload.
func NewParser(d *rdf.Dict) *Parser { return &Parser{dict: d} }

// NewLookupParser returns a parser resolving constants against d without
// adding to it, for a served query: a constant d lacks becomes rdf.NoID
// (see Graph.Resolved).
func NewLookupParser(d *rdf.Dict) *Parser { return &Parser{dict: d, lookup: true} }

// Parse parses one SELECT query.
func (p *Parser) Parse(query string) (*Graph, error) {
	st := &parseState{src: query, dict: p.dict, lookup: p.lookup}
	st.advance()
	g, err := st.parseQuery()
	if st.lexErr != nil {
		return nil, st.lexErr // the grammar saw only the EOF standing in for it
	}
	return g, err
}

type tokKind uint8

const (
	tokEOF      tokKind = iota
	tokIRI              // <...>
	tokPrefixed         // foo:bar
	tokVar              // ?x or $x
	tokLiteral          // "..."
	tokKeyword          // SELECT WHERE PREFIX DISTINCT FILTER a ...
	tokPunct            // { } . ; , ( )
	tokNumber           // 42, 3.14
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lex returns the token at the cursor and moves past it; at the end of
// the text it returns tokEOF, again on every later call.
func (s *parseState) lex() (token, error) {
	src, n := s.src, len(s.src)
	for s.i < n {
		i := s.i
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.i++
		case c == '#':
			for s.i < n && src[s.i] != '\n' {
				s.i++
			}
		case c == '<':
			j := strings.IndexByte(src[i:], '>')
			if j < 0 {
				return token{}, parseErrf("unterminated IRI at %d", i)
			}
			s.i += j + 1
			return token{tokIRI, src[i+1 : i+j], i}, nil
		case c == '?' || c == '$':
			j := i + 1
			for j < n && (isNameChar(src[j])) {
				j++
			}
			if j == i+1 {
				return token{}, parseErrf("bare '%c' at %d", c, i)
			}
			s.i = j
			return token{tokVar, src[i+1 : j], i}, nil
		case c == '"':
			j := i + 1
			for j < n {
				if src[j] == '\\' {
					j += 2
					continue
				}
				if src[j] == '"' {
					break
				}
				j++
			}
			if j >= n {
				return token{}, parseErrf("unterminated literal at %d", i)
			}
			lex := src[i+1 : j]
			j++
			// Skip language tag / datatype.
			if j < n && src[j] == '@' {
				for j < n && (isNameChar(src[j]) || src[j] == '@' || src[j] == '-') {
					j++
				}
			} else if j+1 < n && src[j] == '^' && src[j+1] == '^' {
				j += 2
				if j < n && src[j] == '<' {
					k := strings.IndexByte(src[j:], '>')
					if k < 0 {
						return token{}, parseErrf("unterminated datatype at %d", j)
					}
					j += k + 1
				} else {
					for j < n && (isNameChar(src[j]) || src[j] == ':') {
						j++
					}
				}
			}
			s.i = j
			return token{tokLiteral, lex, i}, nil
		case strings.IndexByte("{}.;,()*", c) >= 0:
			s.i++
			return token{tokPunct, src[i : i+1], i}, nil
		case c >= '0' && c <= '9' || c == '-' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9':
			j := i + 1
			for j < n && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			// A trailing '.' is the triple terminator, not part of the number.
			if j > i && src[j-1] == '.' {
				j--
			}
			s.i = j
			return token{tokNumber, src[i:j], i}, nil
		case isNameStart(c):
			j := i
			for j < n && (isNameChar(src[j]) || src[j] == ':') {
				j++
			}
			word := src[i:j]
			if strings.EqualFold(word, "FILTER") {
				// FILTER expressions are ignored per the paper; skip the
				// balanced parenthesis group textually so operator
				// characters inside never reach the token stream.
				k := j
				for k < n && src[k] != '(' {
					if src[k] != ' ' && src[k] != '\t' && src[k] != '\n' && src[k] != '\r' {
						return token{}, parseErrf("FILTER without '(' at %d", k)
					}
					k++
				}
				if k >= n {
					return token{}, parseErrf("FILTER without '(' at %d", j)
				}
				depth := 0
				for ; k < n; k++ {
					if src[k] == '(' {
						depth++
					} else if src[k] == ')' {
						depth--
						if depth == 0 {
							k++
							break
						}
					}
				}
				if depth != 0 {
					return token{}, parseErrf("unterminated FILTER at %d", i)
				}
				s.i = k
				continue
			}
			s.i = j
			if strings.Contains(word, ":") {
				return token{tokPrefixed, word, i}, nil
			}
			return token{tokKeyword, word, i}, nil
		default:
			return token{}, parseErrf("unexpected character %q at %d", c, i)
		}
	}
	return token{tokEOF, "", n}, nil
}

func isNameStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.'
}

// parseState parses one query, pulling its tokens one at a time.
type parseState struct {
	src string
	i   int   // the cursor, past tok
	tok token // the one token of lookahead
	// lexErr is the first lexical error: tok is then tokEOF for good, and
	// Parse reports lexErr whatever the grammar made of that.
	lexErr   error
	dict     *rdf.Dict
	lookup   bool
	prefixes map[string]string
}

// advance lexes the next token into the lookahead.
func (s *parseState) advance() {
	if s.lexErr == nil {
		s.tok, s.lexErr = s.lex()
	}
	if s.lexErr != nil {
		s.tok = token{tokEOF, "", len(s.src)}
	}
}

func (s *parseState) next() token {
	t := s.tok
	if t.kind != tokEOF {
		s.advance()
	}
	return t
}

// is reports whether the lookahead is the keyword or punctuation text.
func (s *parseState) is(kind tokKind, text string) bool {
	return s.tok.kind == kind && strings.EqualFold(s.tok.text, text)
}

// accept consumes the lookahead if it is text.
func (s *parseState) accept(kind tokKind, text string) bool {
	if s.is(kind, text) {
		s.next()
		return true
	}
	return false
}

// expect consumes the lookahead, which must be text.
func (s *parseState) expect(kind tokKind, text string) error {
	if t := s.next(); t.kind != kind || !strings.EqualFold(t.text, text) {
		return parseErrf("expected %q, got %q at %d", text, t.text, t.pos)
	}
	return nil
}

func (s *parseState) parseQuery() (*Graph, error) {
	g := &Graph{}
	// Prologue: PREFIX declarations.
	for s.accept(tokKeyword, "PREFIX") {
		// A bare "foo:" lexes as prefixed with an empty local part.
		name := s.next()
		if name.kind != tokPrefixed {
			return nil, parseErrf("malformed PREFIX at %d", name.pos)
		}
		iri := s.next()
		if iri.kind != tokIRI {
			return nil, parseErrf("PREFIX needs IRI at %d", iri.pos)
		}
		if s.prefixes == nil {
			s.prefixes = map[string]string{}
		}
		s.prefixes[name.text[:strings.IndexByte(name.text, ':')]] = iri.text
	}
	if err := s.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	// Projection: DISTINCT? (Var+ | '*').
	s.accept(tokKeyword, "DISTINCT")
	if t := s.tok; !s.accept(tokPunct, "*") {
		for s.tok.kind == tokVar {
			g.Select = append(g.Select, s.next().text)
		}
		if len(g.Select) == 0 {
			return nil, parseErrf("SELECT needs variables or *, got %q at %d", t.text, t.pos)
		}
	}
	s.accept(tokKeyword, "WHERE")
	if err := s.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	if err := s.parseBGP(g); err != nil {
		return nil, err
	}
	// Solution modifiers: ORDER BY then LIMIT.
	if s.accept(tokKeyword, "ORDER") {
		if err := s.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for t := s.tok; ; t = s.tok {
			if t.kind == tokVar {
				s.next()
				g.OrderBy = append(g.OrderBy, OrderKey{Var: t.text})
				continue
			}
			desc := s.is(tokKeyword, "DESC")
			if !desc && !s.is(tokKeyword, "ASC") {
				if len(g.OrderBy) == 0 {
					return nil, parseErrf("empty ORDER BY at %d", t.pos)
				}
				break
			}
			s.next()
			if err := s.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			v := s.next()
			if v.kind != tokVar {
				return nil, parseErrf("ORDER BY %s needs a variable at %d", t.text, v.pos)
			}
			if err := s.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			g.OrderBy = append(g.OrderBy, OrderKey{Var: v.text, Desc: desc})
		}
	}
	if s.accept(tokKeyword, "LIMIT") {
		n := s.next()
		if n.kind != tokNumber {
			return nil, parseErrf("LIMIT needs a number at %d", n.pos)
		}
		if _, err := fmt.Sscan(n.text, &g.Limit); err != nil || g.Limit < 0 {
			return nil, parseErrf("bad LIMIT %q", n.text)
		}
	}
	if t := s.tok; t.kind != tokEOF {
		return nil, parseErrf("unexpected trailing %q at %d", t.text, t.pos)
	}
	return g, nil
}

// parseBGP parses triple patterns until the closing brace, supporting
// ';' predicate-object lists and ',' object lists, skipping FILTER.
func (s *parseState) parseBGP(g *Graph) error {
	for {
		switch t := s.tok; {
		case s.accept(tokPunct, "}"):
			return nil
		case t.kind == tokEOF:
			return parseErrf("unexpected end of query")
		case s.is(tokKeyword, "OPTIONAL") || s.is(tokKeyword, "UNION") || s.is(tokKeyword, "GRAPH"):
			return parseErrf("%s is not supported", strings.ToUpper(t.text))
		case s.accept(tokPunct, "."):
		default:
			if err := s.parseTriples(g); err != nil {
				return err
			}
		}
	}
}

func (s *parseState) parseTriples(g *Graph) error {
	subj, err := s.parseVertex()
	if err != nil {
		return err
	}
	for {
		pred, err := s.parsePredicate()
		if err != nil {
			return err
		}
		for {
			obj, err := s.parseVertex()
			if err != nil {
				return err
			}
			g.AddTriplePattern(subj, pred, obj)
			if !s.accept(tokPunct, ",") {
				break
			}
		}
		// A ';' may trail before '.' or '}'.
		if !s.accept(tokPunct, ";") || s.is(tokPunct, ".") || s.is(tokPunct, "}") {
			return nil
		}
	}
}

func (s *parseState) parseVertex() (Vertex, error) {
	t := s.next()
	switch t.kind {
	case tokVar:
		return Vertex{Var: t.text}, nil
	case tokIRI, tokPrefixed:
		id, err := s.iri(t)
		return Vertex{Term: id}, err
	case tokLiteral:
		return Vertex{Term: s.id(rdf.NewLiteral(unescapeQueryLiteral(t.text)))}, nil
	case tokNumber:
		return Vertex{Term: s.id(rdf.NewLiteral(t.text))}, nil
	}
	return Vertex{}, parseErrf("expected term, got %q at %d", t.text, t.pos)
}

func (s *parseState) parsePredicate() (Edge, error) {
	t := s.next()
	switch {
	case t.kind == tokVar:
		return Edge{PredVar: t.text}, nil
	case t.kind == tokIRI || t.kind == tokPrefixed:
		id, err := s.iri(t)
		return Edge{Pred: id}, err
	case t.kind == tokKeyword && t.text == "a":
		return Edge{Pred: s.id(rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"))}, nil
	}
	return Edge{}, parseErrf("expected predicate, got %q at %d", t.text, t.pos)
}

// iri resolves the IRI an IRI or prefixed-name token stands for.
func (s *parseState) iri(t token) (rdf.ID, error) {
	iri := t.text
	if t.kind == tokPrefixed {
		idx := strings.IndexByte(t.text, ':')
		base, ok := s.prefixes[t.text[:idx]]
		if !ok {
			return 0, parseErrf("undeclared prefix %q at %d", t.text[:idx], t.pos)
		}
		iri = base + t.text[idx+1:]
	}
	return s.id(rdf.NewIRI(iri)), nil
}

// id resolves a constant: interned, or looked up, rdf.NoID if absent.
func (s *parseState) id(t rdf.Term) rdf.ID {
	if id, ok := s.dict.Lookup(t); ok || s.lookup {
		return id
	}
	return s.dict.Encode(t)
}

func unescapeQueryLiteral(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			default:
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// MustParse parses and panics on error; for tests and examples.
func MustParse(d *rdf.Dict, query string) *Graph {
	g, err := NewParser(d).Parse(query)
	if err != nil {
		panic(err)
	}
	return g
}
