package rdffrag

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"rdffrag/internal/rdf"
)

// This file renders query Results in the W3C SPARQL 1.1 result formats:
// application/sparql-results+json, text/csv and text/tab-separated-values.
// A cell is read off the ID table as its term's N-Triples rendering
// (<iri>, "literal", _:blank) and classified accordingly. All three
// append into one pooled chunk that goes to the io.Writer whenever it
// fills: a result of any size leaves in one pass, allocations do not
// grow with the row count, and the first failed write ends the encoding.

// chunkSize keeps the write count of a multi-megabyte answer in the
// hundreds and the buffer small enough to pool per concurrent response.
const chunkSize = 32 << 10

type chunk struct {
	w io.Writer
	b []byte
}

// Rows are appended whole before the fill check; the slack keeps ordinary
// rows from growing a chunk past its first allocation.
var chunkPool = sync.Pool{New: func() any { return &chunk{b: make([]byte, 0, chunkSize+chunkSize/8)} }}

func newChunk(w io.Writer) *chunk {
	c := chunkPool.Get().(*chunk)
	c.w = w
	return c
}

// release pools the chunk again, unless a huge cell grew it.
func (c *chunk) release() {
	c.w, c.b = nil, c.b[:0]
	if cap(c.b) <= 4*chunkSize {
		chunkPool.Put(c)
	}
}

// flush writes the chunk out once it holds more than floor bytes:
// chunkSize after each row, 0 at the end.
func (c *chunk) flush(floor int) error {
	if len(c.b) <= floor {
		return nil
	}
	_, err := c.w.Write(c.b)
	c.b = c.b[:0]
	return err
}

// sep appends the separator that precedes every element but the first.
func (c *chunk) sep(i int, sep byte) {
	if i > 0 {
		c.b = append(c.b, sep)
	}
}

// cell returns the rendering of the term at row, col; "" when unbound.
func (r *Result) cell(row, col int) string {
	if id := r.ids[row*len(r.Vars)+col]; id != rdf.NoID {
		return r.text[id]
	}
	return ""
}

// classifyTerm splits a result cell into its SPARQL-JSON term type and
// plain value; ok is false for an unbound cell.
func classifyTerm(s string) (typ, value string, ok bool) {
	switch {
	case s == "":
		return "", "", false
	case strings.HasPrefix(s, "<") && strings.HasSuffix(s, ">"):
		return "uri", s[1 : len(s)-1], true
	case strings.HasPrefix(s, `"`) && strings.HasSuffix(s, `"`) && len(s) >= 2:
		return "literal", rdf.UnescapeLiteral(s[1 : len(s)-1]), true
	case strings.HasPrefix(s, "_:"):
		return "bnode", s[2:], true
	default:
		return "literal", s, true
	}
}

// WriteJSON emits the result in the SPARQL 1.1 Query Results JSON format,
// compact: one binding object per line, keys in Vars order. Degraded-mode
// answers carry the extension members "partial" and "unreachableSites"
// (absent on complete results).
func (r *Result) WriteJSON(w io.Writer) error {
	c := newChunk(w)
	defer c.release()
	c.b = append(c.b, `{"head":{"vars":[`...)
	for i, v := range r.Vars {
		c.sep(i, ',')
		c.b = appendJSONString(c.b, v)
	}
	c.b = append(c.b, `]},"results":{"bindings":[`...)
	for n := range r.n {
		c.sep(n, ',')
		c.b = append(c.b, "\n{"...)
		bound := 0
		for i, v := range r.Vars {
			typ, value, ok := classifyTerm(r.cell(n, i))
			if !ok {
				continue
			}
			c.sep(bound, ',')
			bound++
			c.b = append(appendJSONString(c.b, v), `:{"type":"`...)
			c.b = append(append(c.b, typ...), `","value":`...)
			c.b = append(appendJSONString(c.b, value), '}')
		}
		c.b = append(c.b, '}')
		if err := c.flush(chunkSize); err != nil {
			return err
		}
	}
	c.b = append(c.b, "\n]}"...)
	if r.Stats.Partial {
		c.b = append(c.b, `,"partial":true`...)
	}
	if sites := r.Stats.UnreachableSites; len(sites) > 0 {
		c.b = append(c.b, `,"unreachableSites":[`...)
		for i, site := range sites {
			c.sep(i, ',')
			c.b = strconv.AppendInt(c.b, int64(site), 10)
		}
		c.b = append(c.b, ']')
	}
	c.b = append(c.b, "}\n"...)
	return c.flush(0)
}

// appendJSONString appends s as a JSON string: quotes, backslashes and
// control bytes escaped, invalid UTF-8 replaced by U+FFFD, everything
// else copied through in runs.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(append(b, s[start:i]...), "\ufffd"...)
				start = i + 1
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// WriteCSV emits the result in the SPARQL 1.1 CSV format: a header of
// variable names, then plain term values (IRIs without brackets, literal
// lexical forms), quoted per RFC 4180 where a field needs it.
func (r *Result) WriteCSV(w io.Writer) error {
	c := newChunk(w)
	defer c.release()
	for i, v := range r.Vars {
		c.sep(i, ',')
		c.b = appendCSVField(c.b, v)
	}
	c.b = append(c.b, '\n')
	for n := range r.n {
		for i := range r.Vars {
			c.sep(i, ',')
			_, value, _ := classifyTerm(r.cell(n, i))
			c.b = appendCSVField(c.b, value)
		}
		c.b = append(c.b, '\n')
		if err := c.flush(chunkSize); err != nil {
			return err
		}
	}
	return c.flush(0)
}

// appendCSVField appends one field under encoding/csv's quoting rule:
// quoted when it holds a comma, quote, CR or LF, starts with white space
// or is the Postgres end marker `\.`; quotes inside are doubled.
func appendCSVField(b []byte, f string) []byte {
	first, _ := utf8.DecodeRuneInString(f)
	if f == "" || f != `\.` && !strings.ContainsAny(f, ",\"\r\n") && !unicode.IsSpace(first) {
		return append(b, f...)
	}
	b = append(b, '"')
	for i := strings.IndexByte(f, '"'); i >= 0; i = strings.IndexByte(f, '"') {
		b = append(append(b, f[:i+1]...), '"')
		f = f[i+1:]
	}
	return append(append(b, f...), '"')
}

// WriteTSV emits the SPARQL 1.1 TSV format, which keeps N-Triples-style
// term syntax.
func (r *Result) WriteTSV(w io.Writer) error {
	c := newChunk(w)
	defer c.release()
	for i, v := range r.Vars {
		c.sep(i, '\t')
		c.b = append(append(c.b, '?'), v...)
	}
	c.b = append(c.b, '\n')
	for n := range r.n {
		for i := range r.Vars {
			c.sep(i, '\t')
			c.b = append(c.b, r.cell(n, i)...)
		}
		c.b = append(c.b, '\n')
		if err := c.flush(chunkSize); err != nil {
			return err
		}
	}
	return c.flush(0)
}
