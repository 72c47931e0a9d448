package transport

// Wire format of the site RPC. A request is one JSON document; the
// response is a stream of newline-delimited JSON frames
// (application/x-ndjson): a header frame, once the site has checked the
// client's dictionary stamp, zero or more batch frames carrying binding
// rows, and a terminal done frame. The terminal frame is what makes torn
// streams detectable: EOF before it means the stream was cut (network
// fault, site death) and the delivered prefix is incomplete — the client
// retries the whole stream instead of silently accepting a truncated
// result, and the control site's dedup absorbs the rows the torn attempt
// had delivered.
//
// Queries travel structurally (vertices and edges with constants as
// N-Triples term keys), not as SPARQL text: Term.Key/TermFromKey
// round-trip exactly, so the encoding has no parser quirks to survive.
// Binding rows travel as raw dictionary IDs. That requires the client's
// dictionary to be a prefix of the site's, which holds by construction: a
// fragment-host process builds its deployment from the same data and
// workload files with the same deterministic pipeline as the control
// site, and after that only an applied update batch adds a term, in log
// order — a query never does, on either side. The site checks the
// client's stamp against its own dictionary before it reads the query.

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

// wireQuery is the structural encoding of a basic graph pattern, with
// the vertices the control site reads of its rows (cluster.EvalRequest's
// Keep; absent: every vertex).
type wireQuery struct {
	Verts []wireVert       `json:"verts"`
	Edges []wireEdge       `json:"edges"`
	Keep  match.VertexMask `json:"keep,omitempty"`
}

// evalWire is the /eval request body.
type evalWire struct {
	Site        int       `json:"site"`
	Frags       []int     `json:"frags"`
	Query       wireQuery `json:"query"`
	Parallelism int       `json:"parallelism,omitempty"`
	Batch       int       `json:"batch,omitempty"`
	// DictLen/DictFP stamp the client dictionary: its length and the
	// fingerprint of all of it (rdf.Dict.Fingerprint). Rows travel as raw
	// IDs, so the site serves only a client whose whole dictionary is a
	// prefix of its own; a request without a stamp is refused too.
	DictLen int    `json:"dictLen,omitempty"`
	DictFP  uint64 `json:"dictFp,omitempty"`
}

// frame is one NDJSON response frame, discriminated by K: "hdr" opens
// the stream, "b" carries a batch, "done" closes it, "err" reports a
// server-side failure, which the client does not retry.
type frame struct {
	K    string   `json:"k"`
	Vars []string `json:"vars,omitempty"` // b
	Rows wireRows `json:"rows,omitzero"`  // b
	Msg  string   `json:"msg,omitempty"`  // err
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

// encodeQuery flattens a parsed query graph and its kept vertices for the
// wire, decoding constant IDs to stable term keys through the control
// site's dict.
func encodeQuery(q *sparql.Graph, keep match.VertexMask, d *rdf.Dict) wireQuery {
	wq := wireQuery{Verts: make([]wireVert, len(q.Verts)), Edges: make([]wireEdge, len(q.Edges)), Keep: keep}
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

// decodeQuery rebuilds a query graph and its kept vertices from the wire,
// looking constant term keys up in the site's dict: no client whose
// dictionary is a prefix of the site's sends a term the site lacks, so one
// is refused. Edges name vertices by their place in the list, so a list
// that names a vertex twice is refused: the graph interns vertices, and
// every later one would move down a place. So is a kept vertex the list
// does not have.
func decodeQuery(wq wireQuery, d *rdf.Dict) (*sparql.Graph, match.VertexMask, error) {
	q := sparql.NewGraph()
	for i, wv := range wq.Verts {
		v := sparql.Vertex{Var: wv.Var}
		if (wv.Var == "") == (wv.Term == "") {
			return nil, nil, fmt.Errorf("transport: vertex %d must be a var or a term, not both or neither", i)
		}
		if wv.Term != "" {
			var err error
			if v.Term, err = lookupKey(d, wv.Term); err != nil {
				return nil, nil, fmt.Errorf("transport: vertex %d: %w", i, err)
			}
		}
		if q.AddVertex(v) != i {
			return nil, nil, fmt.Errorf("transport: vertex %d repeats an earlier one", i)
		}
	}
	for i, we := range wq.Edges {
		if we.From < 0 || we.From >= len(q.Verts) || we.To < 0 || we.To >= len(q.Verts) {
			return nil, nil, fmt.Errorf("transport: edge %d endpoints out of range", i)
		}
		e := sparql.Edge{From: we.From, To: we.To, PredVar: we.PredVar}
		if (we.PredVar == "") == (we.Pred == "") {
			return nil, nil, fmt.Errorf("transport: edge %d must have a pred or a predVar, not both or neither", i)
		}
		if we.Pred != "" {
			var err error
			if e.Pred, err = lookupKey(d, we.Pred); err != nil {
				return nil, nil, fmt.Errorf("transport: edge %d: %w", i, err)
			}
		}
		q.AddEdge(e)
	}
	if !wq.Keep.Within(len(q.Verts)) {
		return nil, nil, fmt.Errorf("transport: keep marks a vertex beyond the query's %d", len(q.Verts))
	}
	return q, wq.Keep, nil
}

// lookupKey resolves a term key to its ID in the site's dictionary d.
func lookupKey(d *rdf.Dict, key string) (rdf.ID, error) {
	t, err := rdf.TermFromKey(key)
	if id, ok := d.Lookup(t); ok || err != nil {
		return id, err
	}
	return rdf.NoID, fmt.Errorf("%s is not in this site's dictionary", t)
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
		Query:       encodeQuery(req.Query, req.Keep, d),
		Parallelism: req.Parallelism,
		Batch:       batchSize,
		DictLen:     dictLen,
		DictFP:      d.Fingerprint(dictLen),
	}
}
