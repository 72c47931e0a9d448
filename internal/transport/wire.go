package transport

// Wire format of the site RPC. A request is one JSON document; the
// response is a stream of newline-delimited JSON frames
// (application/x-ndjson): a header frame carrying the site's dictionary
// fingerprint, zero or more batch frames carrying binding rows, and a
// terminal done frame. The terminal frame is what makes torn streams
// detectable: EOF before it means the stream was cut (network fault, site
// death) and the delivered prefix is incomplete — the client retries the
// whole stream instead of silently accepting a truncated result, and the
// control site's dedup absorbs the rows the torn attempt had delivered.
//
// Queries travel structurally (vertices and edges with constants as
// N-Triples term keys), not as SPARQL text: Term.Key/TermFromKey
// round-trip exactly, so the encoding has no parser quirks to survive.
// Binding rows travel as raw dictionary IDs. That requires the client
// and server dictionaries to agree, which they do by construction: a
// fragment-host process builds its deployment from the same data and
// workload files with the same deterministic pipeline as the control
// site, and data-term IDs are assigned in file order. Terms a query
// interns ad hoc (constants absent from the data) never appear in
// binding rows — rows only reference matched data vertices — so
// post-load interning divergence is harmless.

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"rdffrag/internal/cluster"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// wireVert is one query vertex: a variable or a constant term key.
type wireVert struct {
	Var  string `json:"var,omitempty"`
	Term string `json:"term,omitempty"`
}

// wireEdge is one query edge between vertex indices.
type wireEdge struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Pred    string `json:"pred,omitempty"`
	PredVar string `json:"predVar,omitempty"`
}

// wireQuery is the structural encoding of a basic graph pattern.
type wireQuery struct {
	Verts []wireVert `json:"verts"`
	Edges []wireEdge `json:"edges"`
}

// evalWire is the /eval request body.
type evalWire struct {
	Site        int       `json:"site"`
	Frags       []int     `json:"frags"`
	Query       wireQuery `json:"query"`
	Parallelism int       `json:"parallelism,omitempty"`
	Batch       int       `json:"batch,omitempty"`
	// DictLen/DictFP fingerprint the client dictionary's first DictLen
	// terms (rdf.Dict.Fingerprint). Binding rows travel as raw IDs, so a
	// client and server whose data dictionaries diverged would silently
	// decode each other's rows to the wrong terms; both sides verify the
	// shared prefix min(client, server length) instead — full lengths
	// legitimately differ, because each side interns ad-hoc query
	// constants the other never sees. Zero means an old client; the
	// check is skipped.
	DictLen int    `json:"dictLen,omitempty"`
	DictFP  uint64 `json:"dictFp,omitempty"`
}

// frame is one NDJSON response frame, discriminated by K: "hdr" opens
// the stream, "b" carries a batch, "done" closes it, "err" reports a
// server-side failure (Retry says whether it is worth retrying).
type frame struct {
	K       string   `json:"k"`
	DictLen int      `json:"dictLen,omitempty"` // hdr: shared dictionary prefix length
	DictFP  uint64   `json:"dictFp,omitempty"`  // hdr: server fingerprint of that prefix
	Vars    []string `json:"vars,omitempty"`    // b
	Rows    wireRows `json:"rows,omitzero"`     // b
	Msg     string   `json:"msg,omitempty"`     // err
	Retry   bool     `json:"retry,omitempty"`   // err
}

// wireRows is the rows of a batch frame: on the wire an array of rows,
// each an array of IDs; in memory the flat array a match.Bindings holds,
// so a batch goes from one to the other without a slice per row. It
// encodes to the bytes encoding/json gives the same rows as a slice of ID
// slices (no rows: the field is left out). Decoding is by hand —
// encoding/json grows every row and the row list by reflection — in two
// passes: one counts the IDs, the second fills one match.TakeRows. It accepts
// only what encoding/json accepts into such a slice of slices — and of
// that only what json.Marshal of one can emit, plus whitespace: null or
// an array of rows, a row null or an array of decimal integers below 2^32
// — and yields the same IDs in the same order.
type wireRows struct {
	ids []rdf.ID
	n   int // rows
	// w is the width of every row, or -1 when the rows received differ in
	// width: what was sent is then no table, and bindings refuses it.
	w int
}

func rowsOf(b *match.Bindings) wireRows {
	return wireRows{ids: b.Rows, n: b.Len(), w: len(b.Vars)}
}

// IsZero leaves an empty batch's rows out of its frame.
func (r wireRows) IsZero() bool { return r.n == 0 }

func (r wireRows) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 2+2*r.n+7*len(r.ids))
	out = append(out, '[')
	for i := 0; i < r.n; i++ {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '[')
		for k, id := range r.ids[i*r.w : (i+1)*r.w] {
			if k > 0 {
				out = append(out, ',')
			}
			out = strconv.AppendUint(out, uint64(id), 10)
		}
		out = append(out, ']')
	}
	return append(out, ']'), nil
}

var errWireRows = errors.New("transport: rows: not an array of arrays of uint32")

func (r *wireRows) UnmarshalJSON(data []byte) error {
	nIDs := 0
	for i, c := range data {
		if c >= '0' && c <= '9' && (i == 0 || data[i-1] < '0' || data[i-1] > '9') {
			nIDs++
		}
	}
	// depth counts the arrays open around the cursor; st says what may
	// come next: a value (after ','), a value or ']' (after '['), or
	// ',' or ']' (after a value).
	const (
		value = iota
		valueOrClose
		afterValue
	)
	got := wireRows{ids: match.TakeRows(nIDs)}
	// endRow counts a row that ended with the array start IDs long.
	endRow := func(start int) {
		if w := len(got.ids) - start; got.n == 0 {
			got.w = w
		} else if w != got.w {
			got.w = -1
		}
		got.n++
	}
	depth, st, start := 0, value, 0
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		case c == '[' && st != afterValue && depth < 2:
			depth, st, start = depth+1, valueOrClose, len(got.ids)
		case c == ']' && st != value && depth > 0:
			if depth == 2 {
				endRow(start)
			}
			depth, st = depth-1, afterValue
		case c == ',' && st == afterValue && depth > 0:
			st = value
		case c == 'n' && st != afterValue && depth < 2 && len(data)-i >= 4 && string(data[i:i+4]) == "null":
			if depth == 1 {
				endRow(len(got.ids)) // a null row holds nothing
			}
			i, st = i+3, afterValue
		case c >= '0' && c <= '9' && st != afterValue && depth == 2:
			v, first := uint64(0), i
			for ; i < len(data) && data[i] >= '0' && data[i] <= '9' && v < 1<<32; i++ {
				v = v*10 + uint64(data[i]-'0')
			}
			if v >= 1<<32 || (data[first] == '0' && i > first+1) {
				return errWireRows // out of range, or a leading zero
			}
			got.ids = append(got.ids, rdf.ID(v))
			i, st = i-1, afterValue
		default:
			return errWireRows
		}
	}
	if depth != 0 || st != afterValue {
		return errWireRows
	}
	*r = got
	return nil
}

// bindings returns a batch frame's rows as a table over vars, the
// variables of the subquery the frame answers. Rows travel as bare IDs
// and the control site joins them by position, so a frame that names
// other variables, or holds a row that is not exactly len(vars) wide, is
// refused.
func (f *frame) bindings(vars []string) (*match.Bindings, error) {
	if !slices.Equal(f.Vars, vars) {
		return nil, fmt.Errorf("batch binds %v, the subquery %v", f.Vars, vars)
	}
	if f.Rows.n > 0 && f.Rows.w != len(vars) {
		return nil, fmt.Errorf("batch holds rows that are not %d wide", len(vars))
	}
	return match.Recyclable(vars, f.Rows.ids, f.Rows.n), nil
}

// encodeQuery flattens a parsed query graph for the wire, decoding
// constant IDs to stable term keys through the control site's dict.
func encodeQuery(q *sparql.Graph, d *rdf.Dict) wireQuery {
	wq := wireQuery{Verts: make([]wireVert, len(q.Verts)), Edges: make([]wireEdge, len(q.Edges))}
	for i, v := range q.Verts {
		if v.IsVar() {
			wq.Verts[i] = wireVert{Var: v.Var}
		} else {
			wq.Verts[i] = wireVert{Term: d.Decode(v.Term).Key()}
		}
	}
	for i, e := range q.Edges {
		we := wireEdge{From: e.From, To: e.To}
		if e.IsPredVar() {
			we.PredVar = e.PredVar
		} else {
			we.Pred = d.Decode(e.Pred).Key()
		}
		wq.Edges[i] = we
	}
	return wq
}

// decodeQuery rebuilds a query graph from the wire, interning constant
// term keys through the site's dict (content-addressed; concurrent-safe).
func decodeQuery(wq wireQuery, d *rdf.Dict) (*sparql.Graph, error) {
	q := sparql.NewGraph()
	for i, wv := range wq.Verts {
		switch {
		case wv.Var != "":
			q.AddVertex(sparql.Vertex{Var: wv.Var})
		case wv.Term != "":
			t, err := rdf.TermFromKey(wv.Term)
			if err != nil {
				return nil, fmt.Errorf("transport: vertex %d: %w", i, err)
			}
			q.AddVertex(sparql.Vertex{Term: d.Encode(t)})
		default:
			return nil, fmt.Errorf("transport: vertex %d is neither var nor term", i)
		}
	}
	for i, we := range wq.Edges {
		if we.From < 0 || we.From >= len(q.Verts) || we.To < 0 || we.To >= len(q.Verts) {
			return nil, fmt.Errorf("transport: edge %d endpoints out of range", i)
		}
		e := sparql.Edge{From: we.From, To: we.To}
		switch {
		case we.PredVar != "":
			e.PredVar = we.PredVar
		case we.Pred != "":
			t, err := rdf.TermFromKey(we.Pred)
			if err != nil {
				return nil, fmt.Errorf("transport: edge %d: %w", i, err)
			}
			e.Pred = d.Encode(t)
		default:
			return nil, fmt.Errorf("transport: edge %d has neither pred nor predVar", i)
		}
		q.AddEdge(e)
	}
	return q, nil
}

// encodeRequest builds the wire form of an EvalRequest.
func encodeRequest(req cluster.EvalRequest, d *rdf.Dict, batchSize int) *evalWire {
	// Stamp the client dictionary state. Prefix fingerprints are
	// immutable (the dictionary is append-only), so the stamp stays
	// valid across every retry of this request.
	dictLen := d.Len()
	return &evalWire{
		Site:        req.SiteID,
		Frags:       append([]int(nil), req.FragIDs...),
		Query:       encodeQuery(req.Query, d),
		Parallelism: req.Parallelism,
		Batch:       batchSize,
		DictLen:     dictLen,
		DictFP:      d.Fingerprint(dictLen),
	}
}
