package main

import (
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// A minimal JSON reader for SPARQL result documents. encoding/json
// spends more CPU decoding a multi-megabyte answer into maps than the server
// spends producing it, which would make the load generator the
// bottleneck; this reader walks the bytes once and allocates only for
// strings that contain escapes. It accepts any whitespace and key
// order, so it does not depend on how the server formats its output.

type scanner struct {
	b []byte
	i int
}

var errJSON = errors.New("malformed JSON")

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\n', '\t', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at end).
func (s *scanner) peek() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	return s.b[s.i]
}

func (s *scanner) expect(c byte) error {
	if s.peek() != c {
		return fmt.Errorf("%w: want %q at offset %d", errJSON, c, s.i)
	}
	s.i++
	return nil
}

// str reads a string value. The returned slice aliases the input unless
// the string had escapes.
func (s *scanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			out := s.b[start:s.i]
			s.i++
			return out, nil
		case '\\':
			return s.strSlow(start)
		}
		s.i++
	}
	return nil, fmt.Errorf("%w: unterminated string", errJSON)
}

func (s *scanner) strSlow(start int) ([]byte, error) {
	out := append([]byte(nil), s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return out, nil
		case c != '\\':
			out = append(out, c)
			s.i++
		default:
			if s.i+1 >= len(s.b) {
				return nil, fmt.Errorf("%w: dangling escape", errJSON)
			}
			e := s.b[s.i+1]
			s.i += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case 'r':
				out = append(out, '\r')
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'u':
				if s.i+4 > len(s.b) {
					return nil, fmt.Errorf("%w: short \\u escape", errJSON)
				}
				r, err := strconv.ParseUint(string(s.b[s.i:s.i+4]), 16, 32)
				if err != nil {
					return nil, fmt.Errorf("%w: bad \\u escape", errJSON)
				}
				s.i += 4
				out = utf8.AppendRune(out, rune(r))
			default:
				return nil, fmt.Errorf("%w: bad escape \\%c", errJSON, e)
			}
		}
	}
	return nil, fmt.Errorf("%w: unterminated string", errJSON)
}

// skip consumes one value of any type.
func (s *scanner) skip() error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.str()
		return err
	case c == '{':
		return s.object(func([]byte) error { return s.skip() })
	case c == '[':
		return s.array(s.skip)
	case c == 0:
		return fmt.Errorf("%w: unexpected end", errJSON)
	default: // number, true, false, null
		for s.i < len(s.b) {
			switch s.b[s.i] {
			case ',', '}', ']', ' ', '\n', '\t', '\r':
				return nil
			}
			s.i++
		}
		return nil
	}
}

// object calls member for each key; member must consume the value.
func (s *scanner) object(member func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return fmt.Errorf("%w: want ',' or '}' at offset %d", errJSON, s.i)
		}
	}
}

// array calls elem for each element; elem must consume it.
func (s *scanner) array(elem func() error) error {
	if err := s.expect('['); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return fmt.Errorf("%w: want ',' or ']' at offset %d", errJSON, s.i)
		}
	}
}

// result is a decoded SPARQL JSON answer reduced to what the checks
// need.
type result struct {
	answer
	partial bool
	// rowValues holds the selected variables' values per row when the
	// caller asked for them (point reads of churned keys do).
	rowValues [][]string
}

// readResult walks a SPARQL 1.1 JSON results document and reduces it to
// a row count and the order-independent hash the oracle computes, over
// the selected variables in sel's order. With keepRows it also returns
// the values.
func readResult(body []byte, sel []string, keepRows bool) (result, error) {
	var res result
	s := &scanner{b: body}
	kinds, values := make([]byte, len(sel)), make([][]byte, len(sel))
	bound := make([]bool, len(sel))
	binding := func() error {
		for i := range bound {
			bound[i] = false
		}
		err := s.object(func(name []byte) error {
			col := -1
			for i, v := range sel {
				if string(name) == v {
					col = i
				}
			}
			return s.object(func(k []byte) error {
				if col < 0 || (string(k) != "type" && string(k) != "value") {
					return s.skip()
				}
				v, err := s.str()
				if err != nil {
					return err
				}
				if string(k) == "value" {
					values[col], bound[col] = v, true
					return nil
				}
				switch string(v) {
				case "uri":
					kinds[col] = 'u'
				case "literal", "typed-literal":
					kinds[col] = 'l'
				default:
					kinds[col] = 'b'
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		for i, ok := range bound {
			if !ok {
				return fmt.Errorf("row %d leaves ?%s unbound", res.rows, sel[i])
			}
		}
		h := uint64(hashSeed)
		for i := range sel {
			h = hashTerm(h, kinds[i], values[i])
		}
		res.rows++
		res.hash += mix(h)
		if keepRows {
			row := make([]string, len(sel))
			for i, v := range values {
				row[i] = string(v)
			}
			res.rowValues = append(res.rowValues, row)
		}
		return nil
	}
	err := s.object(func(key []byte) error {
		switch string(key) {
		case "results":
			return s.object(func(k []byte) error {
				if string(k) != "bindings" {
					return s.skip()
				}
				return s.array(binding)
			})
		case "partial":
			res.partial = s.peek() == 't'
			return s.skip()
		default:
			return s.skip()
		}
	})
	if err != nil {
		return res, err
	}
	if s.peek() != 0 {
		return res, fmt.Errorf("%w: trailing bytes at offset %d", errJSON, s.i)
	}
	return res, nil
}
