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
	dict *rdf.Dict
}

// NewParser returns a parser interning constants into d.
func NewParser(d *rdf.Dict) *Parser { return &Parser{dict: d} }

// Parse parses one SELECT query.
func (p *Parser) Parse(query string) (*Graph, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	st := &parseState{toks: toks, dict: p.dict, prefixes: map[string]string{}}
	return st.parseQuery()
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

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '<':
			j := strings.IndexByte(src[i:], '>')
			if j < 0 {
				return nil, parseErrf("unterminated IRI at %d", i)
			}
			toks = append(toks, token{tokIRI, src[i+1 : i+j], i})
			i += j + 1
		case c == '?' || c == '$':
			j := i + 1
			for j < n && (isNameChar(src[j])) {
				j++
			}
			if j == i+1 {
				return nil, parseErrf("bare '%c' at %d", c, i)
			}
			toks = append(toks, token{tokVar, src[i+1 : j], i})
			i = j
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
				return nil, parseErrf("unterminated literal at %d", i)
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
						return nil, parseErrf("unterminated datatype at %d", j)
					}
					j += k + 1
				} else {
					for j < n && (isNameChar(src[j]) || src[j] == ':') {
						j++
					}
				}
			}
			toks = append(toks, token{tokLiteral, lex, i})
			i = j
		case strings.ContainsRune("{}.;,()*", rune(c)):
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		case c >= '0' && c <= '9' || c == '-' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9':
			j := i + 1
			for j < n && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			// A trailing '.' is the triple terminator, not part of the number.
			if j > i && src[j-1] == '.' {
				j--
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
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
						return nil, parseErrf("FILTER without '(' at %d", k)
					}
					k++
				}
				if k >= n {
					return nil, parseErrf("FILTER without '(' at %d", j)
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
					return nil, parseErrf("unterminated FILTER at %d", i)
				}
				i = k
				continue
			}
			if strings.Contains(word, ":") {
				toks = append(toks, token{tokPrefixed, word, i})
			} else {
				toks = append(toks, token{tokKeyword, word, i})
			}
			i = j
		default:
			return nil, parseErrf("unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isNameStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.'
}

type parseState struct {
	toks     []token
	pos      int
	dict     *rdf.Dict
	prefixes map[string]string
}

func (s *parseState) peek() token { return s.toks[s.pos] }

func (s *parseState) next() token {
	t := s.toks[s.pos]
	if t.kind != tokEOF {
		s.pos++
	}
	return t
}

func (s *parseState) expectKeyword(kw string) error {
	t := s.next()
	if t.kind != tokKeyword || !strings.EqualFold(t.text, kw) {
		return parseErrf("expected %q, got %q at %d", kw, t.text, t.pos)
	}
	return nil
}

func (s *parseState) expectPunct(p string) error {
	t := s.next()
	if t.kind != tokPunct || t.text != p {
		return parseErrf("expected %q, got %q at %d", p, t.text, t.pos)
	}
	return nil
}

func (s *parseState) parseQuery() (*Graph, error) {
	g := NewGraph()
	// Prologue: PREFIX declarations.
	for s.peek().kind == tokKeyword && strings.EqualFold(s.peek().text, "PREFIX") {
		s.next()
		name := s.next()
		if name.kind != tokPrefixed && !(name.kind == tokKeyword && name.text == ":") {
			// A bare "foo:" lexes as prefixed with empty local part.
			if name.kind != tokPrefixed {
				return nil, parseErrf("malformed PREFIX at %d", name.pos)
			}
		}
		iri := s.next()
		if iri.kind != tokIRI {
			return nil, parseErrf("PREFIX needs IRI at %d", iri.pos)
		}
		pfx := strings.TrimSuffix(name.text, ":")
		if idx := strings.IndexByte(name.text, ':'); idx >= 0 {
			pfx = name.text[:idx]
		}
		s.prefixes[pfx] = iri.text
	}
	if err := s.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// Projection: DISTINCT? (Var+ | '*').
	if t := s.peek(); t.kind == tokKeyword && strings.EqualFold(t.text, "DISTINCT") {
		s.next()
	}
	if t := s.peek(); t.kind == tokPunct && t.text == "*" {
		s.next()
	} else {
		for s.peek().kind == tokVar {
			g.Select = append(g.Select, s.next().text)
		}
		if len(g.Select) == 0 {
			return nil, parseErrf("SELECT needs variables or *, got %q at %d", t.text, t.pos)
		}
	}
	if s.peek().kind == tokKeyword && strings.EqualFold(s.peek().text, "WHERE") {
		s.next()
	}
	if err := s.expectPunct("{"); err != nil {
		return nil, err
	}
	if err := s.parseBGP(g); err != nil {
		return nil, err
	}
	// Solution modifiers: ORDER BY then LIMIT.
	if t := s.peek(); t.kind == tokKeyword && strings.EqualFold(t.text, "ORDER") {
		s.next()
		if err := s.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := s.peek()
			switch {
			case t.kind == tokVar:
				s.next()
				g.OrderBy = append(g.OrderBy, OrderKey{Var: t.text})
			case t.kind == tokKeyword && (strings.EqualFold(t.text, "ASC") || strings.EqualFold(t.text, "DESC")):
				desc := strings.EqualFold(t.text, "DESC")
				s.next()
				if err := s.expectPunct("("); err != nil {
					return nil, err
				}
				v := s.next()
				if v.kind != tokVar {
					return nil, parseErrf("ORDER BY %s needs a variable at %d", t.text, v.pos)
				}
				if err := s.expectPunct(")"); err != nil {
					return nil, err
				}
				g.OrderBy = append(g.OrderBy, OrderKey{Var: v.text, Desc: desc})
			default:
				if len(g.OrderBy) == 0 {
					return nil, parseErrf("empty ORDER BY at %d", t.pos)
				}
				goto doneOrder
			}
		}
	doneOrder:
	}
	if t := s.peek(); t.kind == tokKeyword && strings.EqualFold(t.text, "LIMIT") {
		s.next()
		n := s.next()
		if n.kind != tokNumber {
			return nil, parseErrf("LIMIT needs a number at %d", n.pos)
		}
		var limit int
		if _, err := fmt.Sscan(n.text, &limit); err != nil || limit < 0 {
			return nil, parseErrf("bad LIMIT %q", n.text)
		}
		g.Limit = limit
	}
	if t := s.peek(); t.kind != tokEOF {
		return nil, parseErrf("unexpected trailing %q at %d", t.text, t.pos)
	}
	return g, nil
}

// parseBGP parses triple patterns until the closing brace, supporting
// ';' predicate-object lists and ',' object lists, skipping FILTER.
func (s *parseState) parseBGP(g *Graph) error {
	for {
		t := s.peek()
		switch {
		case t.kind == tokPunct && t.text == "}":
			s.next()
			return nil
		case t.kind == tokEOF:
			return parseErrf("unexpected end of query")
		case t.kind == tokKeyword && (strings.EqualFold(t.text, "OPTIONAL") || strings.EqualFold(t.text, "UNION") || strings.EqualFold(t.text, "GRAPH")):
			return parseErrf("%s is not supported", strings.ToUpper(t.text))
		case t.kind == tokPunct && t.text == ".":
			s.next()
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
			if s.peek().kind == tokPunct && s.peek().text == "," {
				s.next()
				continue
			}
			break
		}
		if s.peek().kind == tokPunct && s.peek().text == ";" {
			s.next()
			// Allow trailing ';' before '.' or '}'.
			if s.peek().kind == tokPunct && (s.peek().text == "." || s.peek().text == "}") {
				break
			}
			continue
		}
		break
	}
	return nil
}

func (s *parseState) parseVertex() (Vertex, error) {
	t := s.next()
	switch t.kind {
	case tokVar:
		return Vertex{Var: t.text}, nil
	case tokIRI:
		return Vertex{Term: s.dict.MustIRI(t.text)}, nil
	case tokPrefixed:
		iri, err := s.expand(t)
		if err != nil {
			return Vertex{}, err
		}
		return Vertex{Term: s.dict.MustIRI(iri)}, nil
	case tokLiteral:
		return Vertex{Term: s.dict.MustLiteral(unescapeQueryLiteral(t.text))}, nil
	case tokNumber:
		return Vertex{Term: s.dict.MustLiteral(t.text)}, nil
	}
	return Vertex{}, parseErrf("expected term, got %q at %d", t.text, t.pos)
}

func (s *parseState) parsePredicate() (Edge, error) {
	t := s.next()
	switch t.kind {
	case tokVar:
		return Edge{PredVar: t.text}, nil
	case tokIRI:
		return Edge{Pred: s.dict.MustIRI(t.text)}, nil
	case tokPrefixed:
		iri, err := s.expand(t)
		if err != nil {
			return Edge{}, err
		}
		return Edge{Pred: s.dict.MustIRI(iri)}, nil
	case tokKeyword:
		if t.text == "a" {
			return Edge{Pred: s.dict.MustIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")}, nil
		}
	}
	return Edge{}, parseErrf("expected predicate, got %q at %d", t.text, t.pos)
}

func (s *parseState) expand(t token) (string, error) {
	idx := strings.IndexByte(t.text, ':')
	pfx, local := t.text[:idx], t.text[idx+1:]
	base, ok := s.prefixes[pfx]
	if !ok {
		return "", parseErrf("undeclared prefix %q at %d", pfx, t.pos)
	}
	return base + local, nil
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
