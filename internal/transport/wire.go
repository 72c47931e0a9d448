package transport

// Wire format of the site RPC: one binary framing both ways; integers
// are little-endian uint32 but the dictionary fingerprint and keep words
// (uint64), a string is its length and bytes. The request is
//
//	site dictLen dictFP batch nFrags frag... nVerts slot...
//	nEdges (from to slot)... nKeep word...
//
// where a slot is 'v' and a variable's name or 't' and a term's ID. IDs
// name the same terms at both ends while the client's dictionary is a
// prefix of the site's, which holds by construction (the same files
// through the same deterministic pipeline, then terms added only by
// applied update batches, in log order): the site checks the stamp before
// it reads the query, and refuses an ID at or past the stamped length.
// The response is frames of a kind byte, a payload length and a payload:
// header 'h' (nVars name...: the rows' columns), batches 'b' (nRows, then
// nRows·nVars IDs), then done 'd' (empty) or err 'e' (a message, not
// retried). EOF before done or err means the stream was cut: the client
// retries it whole, and the control site's dedup absorbs repeated rows.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"rdffrag/internal/cluster"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Frame kinds.
const (
	frameHdr   = 'h'
	frameBatch = 'b'
	frameDone  = 'd'
	frameErr   = 'e'
)

// maxFrameBytes bounds one response frame's payload. A site's batch frame
// holds at most the batch size of rows the request asked for — a few KB
// at the default — so a frame this long is no frame a site meant to send:
// the call fails, without a retry, before the payload is read.
const maxFrameBytes = 16 << 20

var le = binary.LittleEndian

// appendRequest appends the wire form of req, asked for in batches of
// batch rows (0: the site's default), stamped with the first dictLen
// terms of the client's dictionary and their fingerprint.
func appendRequest(dst []byte, req cluster.EvalRequest, batch, dictLen int, dictFP uint64) []byte {
	q := req.Query
	dst = le.AppendUint64(appendU32s(dst, req.SiteID, dictLen), dictFP)
	dst = appendU32s(dst, max(batch, 0), len(req.FragIDs))
	dst = appendU32s(appendU32s(dst, req.FragIDs...), len(q.Verts))
	for _, v := range q.Verts {
		dst = appendSlot(dst, v.Var, v.Term)
	}
	dst = appendU32s(dst, len(q.Edges))
	for _, e := range q.Edges {
		dst = appendSlot(appendU32s(dst, e.From, e.To), e.PredVar, e.Pred)
	}
	dst = appendU32s(dst, len(req.Keep))
	for _, w := range req.Keep {
		dst = le.AppendUint64(dst, w)
	}
	return dst
}

func appendU32s(dst []byte, vs ...int) []byte {
	for _, v := range vs {
		dst = le.AppendUint32(dst, uint32(v))
	}
	return dst
}

// appendSlot appends a vertex or an edge label: the variable name, or
// the term id where name is "".
func appendSlot(dst []byte, name string, id rdf.ID) []byte {
	if name != "" {
		return append(appendU32s(append(dst, 'v'), len(name)), name...)
	}
	return le.AppendUint32(append(dst, 't'), uint32(id))
}

// wireReader reads a request or a header front to back. The first read
// that fails sets err, and every read after it returns nothing.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: "+format, a...)
	}
}

func (r *wireReader) take(n int) (p []byte) {
	if n > len(r.b) {
		r.fail("request cut short")
	}
	if r.err == nil {
		p, r.b = r.b[:n], r.b[n:]
	}
	return p
}

func (r *wireReader) u32() int {
	if p := r.take(4); p != nil {
		return int(le.Uint32(p))
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

// count reads a list's length, refusing a list of elements at least size
// bytes long that the rest of the request cannot hold: no length prefix
// makes more than the request backs.
func (r *wireReader) count(size int) int {
	if n := r.u32(); n <= len(r.b)/size {
		return n
	}
	r.fail("a list longer than the request")
	return 0
}

// slot reads a vertex or an edge label: a variable's name, or a term ID
// below dictLen.
func (r *wireReader) slot(dictLen int) (string, rdf.ID) {
	switch k := r.take(1); {
	case k == nil:
	case k[0] == 'v':
		if name := r.take(r.u32()); len(name) > 0 {
			return string(name), 0
		}
		r.fail("an empty variable name")
	case k[0] == 't':
		if id := r.u32(); id < dictLen {
			return "", rdf.ID(id)
		} else if r.err == nil {
			r.fail("term ID %d is past the client's %d-term dictionary", id, dictLen)
		}
	default:
		r.fail("slot kind %q", k[0])
	}
	return "", 0
}

// eval reads the rest of a request for site stamped with dictLen terms:
// the evaluation it asks for and its batch size. Edges name vertices by
// their place in the list, so a list that names a vertex twice is
// refused: the graph interns vertices, and every later one would move
// down a place. So is a kept vertex the list does not have, and a byte
// past the end.
func (r *wireReader) eval(site, dictLen int) (cluster.EvalRequest, int, error) {
	req := cluster.EvalRequest{SiteID: site}
	batch := r.u32()
	req.FragIDs = make([]int, r.count(4))
	for i := range req.FragIDs {
		req.FragIDs[i] = r.u32()
	}
	q := sparql.NewGraph()
	for i, n := 0, r.count(5); i < n && r.err == nil; i++ {
		name, id := r.slot(dictLen)
		if r.err == nil && q.AddVertex(sparql.Vertex{Var: name, Term: id}) != i {
			r.fail("vertex %d repeats an earlier one", i)
		}
	}
	for i, n := 0, r.count(13); i < n && r.err == nil; i++ {
		from, to := r.u32(), r.u32()
		name, id := r.slot(dictLen)
		if r.err == nil && (from >= len(q.Verts) || to >= len(q.Verts)) {
			r.fail("edge %d endpoints out of range", i)
		}
		q.AddEdge(sparql.Edge{From: from, To: to, Pred: id, PredVar: name})
	}
	if n := r.count(8); n > 0 {
		req.Keep = make(match.VertexMask, n)
		for i := range req.Keep {
			req.Keep[i] = r.u64()
		}
	}
	switch {
	case r.err != nil:
	case !req.Keep.Within(len(q.Verts)):
		r.fail("keep marks a vertex beyond the query's %d", len(q.Verts))
	case len(r.b) > 0:
		r.fail("%d bytes past the request", len(r.b))
	}
	req.Query = q
	return req, batch, r.err
}

// appendFrameHead appends a frame's kind and payload length.
func appendFrameHead(dst []byte, kind byte, n int) []byte {
	return le.AppendUint32(append(dst, kind), uint32(n))
}

// appendHdr appends the header frame naming vars.
func appendHdr(dst []byte, vars []string) []byte {
	start := len(dst)
	dst = appendU32s(append(dst, frameHdr, 0, 0, 0, 0), len(vars))
	for _, v := range vars {
		dst = append(appendU32s(dst, len(v)), v...)
	}
	le.PutUint32(dst[start+1:], uint32(len(dst)-start-5))
	return dst
}

// appendBatch appends a batch frame holding b's rows.
func appendBatch(dst []byte, b *match.Bindings) []byte {
	dst = appendU32s(appendFrameHead(dst, frameBatch, 4+4*len(b.Rows)), b.Len())
	for _, id := range b.Rows {
		dst = le.AppendUint32(dst, uint32(id))
	}
	return dst
}

// appendFrame appends a frame whose payload is msg: done (empty) or err.
func appendFrame(dst []byte, kind byte, msg string) []byte {
	return append(appendFrameHead(dst, kind, len(msg)), msg...)
}

// readers holds the buffered readers response frames are read through,
// each big enough for a default batch of wide rows; a longer batch is
// read through one in pieces.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// errCut marks a stream that ended, or failed to read, before its
// terminal frame.
var errCut = errors.New("stream cut")

func cut(err error) error { return fmt.Errorf("%w: %w", errCut, err) }

// readFrames reads one response from br: a header that must name vars, the
// batches, pushed to sink as tables over vars, and the terminal frame,
// after which br must be at its end. progress is called after each frame.
// An outcome's error does not name the site.
func readFrames(br *bufio.Reader, vars []string, sink cluster.BatchSink, progress func()) outcome {
	hdr := false
	for {
		h, err := br.Peek(5)
		if err != nil {
			return outcome{err: cut(err), torn: true}
		}
		kind, n := h[0], le.Uint32(h[1:])
		br.Discard(5)
		if n > maxFrameBytes {
			return outcome{err: fmt.Errorf("a frame longer than %d bytes", maxFrameBytes)}
		}
		switch {
		case kind == frameBatch && hdr:
			b, err := readBatch(br, int(n), vars)
			if err != nil {
				return outcome{err: err, retryable: true, torn: errors.Is(err, errCut)}
			}
			progress()
			if err := sink(b); err != nil {
				return outcome{err: err, refused: true}
			}
		case kind == frameDone && n == 0:
			// Read on to the end of the body: net/http pools a connection
			// only once its response has been read whole. The answer is
			// complete either way, so a read error here fails nothing.
			if _, err := br.ReadByte(); err == nil {
				return outcome{err: errors.New("data after the done frame")}
			}
			return outcome{}
		case (kind == frameHdr && !hdr) || kind == frameErr:
			// A header or a message is read whole from br's buffer; one
			// longer than the buffer is no frame a site meant to send.
			if int(n) > br.Size() {
				return outcome{err: fmt.Errorf("a %q frame longer than %d bytes", kind, br.Size())}
			}
			p, err := br.Peek(int(n))
			switch {
			case err != nil:
				return outcome{err: cut(err), torn: true}
			case kind == frameErr:
				return outcome{err: fmt.Errorf("remote: %s", p)}
			case !sameVars(p, vars):
				return outcome{err: fmt.Errorf("header names other variables than the subquery's %v", vars), retryable: true}
			}
			br.Discard(int(n))
			hdr = true
			progress()
		default:
			return outcome{err: fmt.Errorf("unexpected frame %q of %d bytes", kind, n), retryable: true}
		}
	}
}

// sameVars reports whether a header payload names exactly vars, in order.
func sameVars(p []byte, vars []string) bool {
	r := wireReader{b: p}
	same := r.u32() == len(vars)
	for i := 0; same && i < len(vars); i++ {
		same = string(r.take(r.u32())) == vars[i]
	}
	return same && r.err == nil && len(r.b) == 0
}

// readBatch reads an n-byte batch payload as a table over vars: a row
// count, then that many rows of len(vars) IDs, read from br's buffer
// straight into one match.TakeRows array. A payload of another length is
// no such table. The array grows with the IDs read, not with the count,
// so a stream cut short allocates no more than it carried.
func readBatch(br *bufio.Reader, n int, vars []string) (*match.Bindings, error) {
	h, err := br.Peek(4)
	if err != nil {
		return nil, cut(err)
	}
	rows, w := int(le.Uint32(h)), len(vars)
	br.Discard(4)
	if n < 4 || uint64(n-4) != 4*uint64(rows)*uint64(w) {
		return nil, fmt.Errorf("batch of %d bytes is no %d rows %d wide", n, rows, w)
	}
	if rows*w == 0 {
		return match.Recyclable(vars, nil, rows), nil
	}
	ids := match.TakeRows(min(rows*w, br.Size()/4))
	for have := 0; have < rows*w; have = len(ids) {
		k := min(rows*w-have, br.Size()/4)
		p, err := br.Peek(4 * k)
		if err != nil {
			match.GiveRows(ids)
			return nil, cut(err)
		}
		ids = match.GrowRows(ids, k)[:have+k]
		for j := range ids[have:] {
			ids[have+j] = rdf.ID(le.Uint32(p[4*j:]))
		}
		br.Discard(4 * k)
	}
	return match.Recyclable(vars, ids, rows), nil
}
