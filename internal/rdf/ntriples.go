package rdf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
)

// ReadNTriples parses a (simplified) N-Triples document, as ScanNTriples
// reads it, into the graph and returns the number of statements read.
// A term is looked up by the line's own bytes wherever they are its
// rendering, and not at all where they repeat the line before's term in
// the same position.
func ReadNTriples(g *Graph, r io.Reader) (int, error) {
	return readAll(g, func(l *loader) error {
		var prev [3]lastTerm
		return parseAhead(r, func(line []byte, ts *[3]ntTerm) {
			s := l.nt(line, ts[0], &prev[0]) // in S, P, O order: the order IDs are given in
			p := l.nt(line, ts[1], &prev[1])
			l.add(Triple{S: s, P: p, O: l.nt(line, ts[2], &prev[2])})
		})
	})
}

// parseAhead is scanNT with the reading and parsing on a goroutine of
// its own, up to two batches of lines ahead of fn, which runs on the
// caller's goroutine in document order.
func parseAhead(r io.Reader, fn func(line []byte, ts *[3]ntTerm)) error {
	full, free := make(chan *ntBatch, 1), make(chan *ntBatch, 3) // free holds every batch
	for range cap(free) {
		// Grown by the lines it first holds, so a short document costs little.
		free <- &ntBatch{buf: make([]byte, 0, 4<<10), lines: make([]ntLine, 0, 64)}
	}
	go func() {
		b := <-free
		err := scanNT(r, func(line []byte, ts *[3]ntTerm) error {
			b.buf = append(b.buf, line...)
			b.lines = append(b.lines, ntLine{end: len(b.buf), ts: *ts})
			if len(b.lines) == ntBatchLines {
				full <- b
				b = <-free
				b.buf, b.lines = b.buf[:0], b.lines[:0]
			}
			return nil
		})
		b.err = err // on the batch the scan ended in, not the one it began in
		full <- b
		close(full)
	}()
	var err error
	for b := range full {
		start := 0
		for i := range b.lines {
			fn(b.buf[start:b.lines[i].end], &b.lines[i].ts)
			start = b.lines[i].end
		}
		err = b.err
		free <- b
	}
	return err
}

// ntBatch is a batch of parsed lines, their bytes end to end in buf; err
// is the parse's error, on the last batch.
type ntBatch struct {
	buf   []byte
	lines []ntLine
	err   error
}

// ntLine is one line of a batch: where its bytes end, and its terms.
type ntLine struct {
	end int
	ts  [3]ntTerm
}

const ntBatchLines = 1024

// lastTerm is the exact term a position of the line before held: its
// rendering and ID.
type lastTerm struct {
	r  []byte
	id ID
}

// loader interns a document's terms into a dictionary whose write lock
// it holds, and collects the document's triples.
type loader struct {
	d   *Dict
	buf []byte // a term's rendering, when no line holds it as it is
	// ts holds the triples in chunks of loadChunk, so that collecting
	// them copies none: the sort is what lays them out in one slice.
	ts [][]Triple
	n  int
}

const loadChunk = 4096

// add collects t.
func (l *loader) add(t Triple) {
	if l.n%loadChunk == 0 {
		l.ts = append(l.ts, make([]Triple, 0, loadChunk))
	}
	l.ts[len(l.ts)-1] = append(l.ts[len(l.ts)-1], t)
	l.n++
}

// term interns t.
func (l *loader) term(t Term) ID {
	var id ID
	l.buf, id = l.d.internTerm(l.buf, t)
	return id
}

// nt interns a term of line, whose position held prev on the line before.
func (l *loader) nt(line []byte, t ntTerm, prev *lastTerm) ID {
	if !t.exact {
		return l.term(t.term(string(line[t.lo:t.hi])))
	}
	r := t.rendering(line)
	if !bytes.Equal(r, prev.r) {
		prev.r, prev.id = append(prev.r[:0], r...), l.d.intern(r, "")
	}
	return prev.id
}

// readAll runs scan, which interns each statement's terms through the
// loader it is handed, with g's dictionary locked for writing, and adds
// the triples in one addAll once the whole document has parsed: a
// document that fails adds no triple (the terms of the statements before
// the error stay interned, which carries no graph state).
func readAll(g *Graph, scan func(l *loader) error) (int, error) {
	l := &loader{d: g.Dict}
	terms, err := func() (int, error) {
		l.d.mu.Lock()
		defer l.d.mu.Unlock()
		err := scan(l)
		return len(l.d.text), err
	}()
	if err != nil {
		return 0, err
	}
	g.addAll(sortSPO(l.ts, l.n, terms))
	return l.n, nil
}

// sortSPO returns the n triples of chunks in (S, P, O) order, terms
// being the dictionary's size: one counting pass over the subjects, which
// are dense IDs, groups them, and each subject's run is sorted by (P, O)
// on its own.
func sortSPO(chunks [][]Triple, n, terms int) []Triple {
	end := make([]int, terms+1) // end[s+1], once summed, is where subject s's run ends
	for _, ts := range chunks {
		for _, t := range ts {
			end[t.S+1]++
		}
	}
	for s := 1; s < len(end); s++ {
		end[s] += end[s-1]
	}
	out := make([]Triple, n)
	for _, ts := range chunks {
		for _, t := range ts {
			out[end[t.S]] = t
			end[t.S]++
		}
	}
	lo := 0
	for _, hi := range end[:terms] {
		if hi-lo > 1 {
			slices.SortFunc(out[lo:hi], CompareSPO)
		}
		lo = hi
	}
	return out
}

// ScanNTriples parses a (simplified) N-Triples document, handing fn each
// statement's terms in document order; it stops at the first error, fn's
// included. Supported term forms: <iri>, _:blank, "literal" with optional
// ^^<datatype> or @lang suffix (folded into the literal's lexical form).
// Lines starting with '#' and blank lines are skipped.
func ScanNTriples(r io.Reader, fn func(s, p, o Term) error) error {
	return scanNT(r, func(line []byte, ts *[3]ntTerm) error {
		text := string(line) // the three values are substrings of one copy of the line
		return fn(ts[0].term(text[ts[0].lo:ts[0].hi]), ts[1].term(text[ts[1].lo:ts[1].hi]), ts[2].term(text[ts[2].lo:ts[2].hi]))
	})
}

// scanNT is the parser ScanNTriples and ReadNTriples share: it hands fn
// each statement's line, trimmed, and its three terms, both valid until
// fn returns; it stops at the first error, fn's included.
func scanNT(r io.Reader, fn func(line []byte, ts *[3]ntTerm) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	var ts [3]ntTerm
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		err := parseNTLine(line, &ts)
		if err == nil {
			err = fn(line, &ts)
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

// ntTerm is one term of a line, as offsets into it: its value is
// line[lo:hi], a literal's as the line escapes it. exact says that the
// line's bytes of the whole term, datatype or language tag left out, are
// its rendering (Term.String): they are for an IRI and a blank node, and
// for a literal whose body holds no backslash, tab or CR.
type ntTerm struct {
	kind   TermKind
	lo, hi int
	exact  bool
}

// rendering returns the line's bytes of the term, datatype or language
// tag left out: its rendering when exact.
func (t ntTerm) rendering(line []byte) []byte {
	if t.kind == Blank {
		return line[t.lo-2 : t.hi]
	}
	return line[t.lo-1 : t.hi+1]
}

// term returns the term whose value is v as the line writes it.
func (t ntTerm) term(v string) Term {
	if t.kind == Literal {
		v = UnescapeLiteral(v)
	}
	return Term{Kind: t.kind, Value: v}
}

// parseNTLine reads a trimmed statement line's three terms into ts.
func parseNTLine(line []byte, ts *[3]ntTerm) (err error) {
	pos := 0
	for i := range ts {
		if ts[i], pos, err = parseNTTerm(line, pos); err != nil {
			return err
		}
	}
	if rest := bytes.TrimSpace(line[pos:]); len(rest) > 0 && string(rest) != "." {
		return fmt.Errorf("trailing content %q", rest)
	}
	return nil
}

// parseNTTerm reads the term at line[pos:], spaces and tabs before it
// skipped, and returns it and the offset after it.
func parseNTTerm(line []byte, pos int) (ntTerm, int, error) {
	for pos < len(line) && (line[pos] == ' ' || line[pos] == '\t') {
		pos++
	}
	s := line[pos:]
	if len(s) == 0 {
		return ntTerm{}, pos, errors.New("unexpected end of line")
	}
	switch s[0] {
	case '<':
		end := bytes.IndexByte(s, '>')
		if end < 0 {
			return ntTerm{}, pos, errors.New("unterminated IRI")
		}
		return ntTerm{IRI, pos + 1, pos + end, true}, pos + end + 1, nil
	case '_':
		if len(s) < 2 || s[1] != ':' {
			return ntTerm{}, pos, errors.New("malformed blank node")
		}
		end := blankEnd(s)
		return ntTerm{Blank, pos + 2, pos + end, true}, pos + end, nil
	case '"':
		i, exact := 1, true
		for i < len(s) {
			switch s[i] {
			case '\\':
				exact = false
				i += 2
				continue
			case '\t', '\r':
				exact = false
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		if i >= len(s) {
			return ntTerm{}, pos, errors.New("unterminated literal")
		}
		t, next := ntTerm{Literal, pos + 1, pos + i, exact}, pos+i+1
		// Fold datatype / language tag into the lexical form so round
		// trips stay lossless enough for matching purposes.
		if rest := line[next:]; bytes.HasPrefix(rest, []byte("^^<")) {
			end := bytes.IndexByte(rest, '>')
			if end < 0 {
				return ntTerm{}, pos, errors.New("unterminated datatype IRI")
			}
			next += end + 1
		} else if bytes.HasPrefix(rest, []byte("@")) {
			next += blankEnd(rest)
		}
		return t, next, nil
	}
	return ntTerm{}, pos, fmt.Errorf("unexpected character %q", s[0])
}

// blankEnd is the offset of the first space or tab in s, or len(s): where
// a blank node label or a language tag ends.
func blankEnd(s []byte) int {
	for i, c := range s {
		if c == ' ' || c == '\t' {
			return i
		}
	}
	return len(s)
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
