package rdffrag

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/watdiv"
)

// resultOf builds a Result the way the engine hands one over: an ID table
// of stride len(vars) over a rendering table of its own, "" cells as
// rdf.NoID, and the row count kept apart so a zero-variable answer keeps
// its rows. It sets Rows to the same strings: the oracle reads those, the
// encoders the IDs.
func resultOf(vars []string, rows [][]string) *Result {
	r := &Result{Vars: vars, Rows: rows, n: len(rows)}
	ids := map[string]rdf.ID{}
	for _, row := range rows {
		if len(row) != len(vars) {
			panic(fmt.Sprintf("row %q is not %d wide", row, len(vars)))
		}
		for _, cell := range row {
			id, ok := ids[cell]
			if cell == "" {
				id = rdf.NoID
			} else if !ok {
				id, ids[cell] = rdf.ID(len(r.text)), rdf.ID(len(r.text))
				r.text = append(r.text, cell)
			}
			r.ids = append(r.ids, id)
		}
	}
	return r
}

func sampleResult() *Result {
	return resultOf([]string{"x", "n"}, [][]string{
		{"<http://ex/Aristotle>", `"Aristotle"`},
		{"_:b0", `"with, comma"`},
		{"<http://ex/Plato>", ""},
	})
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var parsed struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type  string `json:"type"`
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed.Head.Vars) != 2 || parsed.Head.Vars[0] != "x" {
		t.Errorf("vars = %v", parsed.Head.Vars)
	}
	if len(parsed.Results.Bindings) != 3 {
		t.Fatalf("bindings = %d", len(parsed.Results.Bindings))
	}
	b0 := parsed.Results.Bindings[0]
	if b0["x"].Type != "uri" || b0["x"].Value != "http://ex/Aristotle" {
		t.Errorf("x binding = %+v", b0["x"])
	}
	if b0["n"].Type != "literal" || b0["n"].Value != "Aristotle" {
		t.Errorf("n binding = %+v", b0["n"])
	}
	if parsed.Results.Bindings[1]["x"].Type != "bnode" {
		t.Errorf("bnode binding = %+v", parsed.Results.Bindings[1]["x"])
	}
	// Unbound variable omitted from the binding map.
	if _, ok := parsed.Results.Bindings[2]["n"]; ok {
		t.Error("unbound variable serialized")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "x,n" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "http://ex/Aristotle,Aristotle" {
		t.Errorf("row = %q", lines[1])
	}
	// Commas inside values must be quoted by the CSV writer.
	if !strings.Contains(lines[2], `"with, comma"`) {
		t.Errorf("comma not quoted: %q", lines[2])
	}
}

func TestWriteTSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().WriteTSV(&buf); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "?x\t?n" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "<http://ex/Aristotle>\t\"Aristotle\"" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestSerializersOnLiveQuery(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	res, err := dep.Query(`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> <Ethics> . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var jsonBuf, csvBuf, tsvBuf bytes.Buffer
	if err := res.WriteJSON(&jsonBuf); err != nil {
		t.Errorf("JSON: %v", err)
	}
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Errorf("CSV: %v", err)
	}
	if err := res.WriteTSV(&tsvBuf); err != nil {
		t.Errorf("TSV: %v", err)
	}
	if !strings.Contains(jsonBuf.String(), "Aristotle") ||
		!strings.Contains(csvBuf.String(), "Aristotle") ||
		!strings.Contains(tsvBuf.String(), "Aristotle") {
		t.Error("serialized output missing expected binding")
	}
}

func TestLoadTurtlePublicAPI(t *testing.T) {
	db := Open(Config{Sites: 2, MinSupport: 0.5})
	ttl := `
@prefix ex: <http://ex/> .
ex:a ex:knows ex:b ; ex:name "A" .
ex:b ex:name "B" .
`
	n, err := db.LoadTurtle(strings.NewReader(ttl))
	if err != nil {
		t.Fatalf("LoadTurtle: %v", err)
	}
	if n != 3 {
		t.Fatalf("loaded %d triples", n)
	}
	dep, err := db.Deploy([]string{
		`SELECT ?x WHERE { ?x <http://ex/name> ?n . }`,
		`SELECT ?x WHERE { ?x <http://ex/knows> ?y . }`,
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	res, err := dep.Query(`SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != `"B"` {
		t.Errorf("rows = %v", res.Rows)
	}
}

// The encoders WriteJSON/WriteCSV/WriteTSV replaced — a struct per
// document and a map per row through encoding/json, encoding/csv, and
// fmt+strings.Join — kept here only as the oracle the append encoders
// are compared against.

type oracleDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]oracleTerm `json:"bindings"`
	} `json:"results"`
	Partial          bool  `json:"partial,omitempty"`
	UnreachableSites []int `json:"unreachableSites,omitempty"`
}

type oracleTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

func oracleClassify(s string) (oracleTerm, bool) {
	switch {
	case s == "":
		return oracleTerm{}, false
	case strings.HasPrefix(s, "<") && strings.HasSuffix(s, ">"):
		return oracleTerm{Type: "uri", Value: s[1 : len(s)-1]}, true
	case strings.HasPrefix(s, `"`) && strings.HasSuffix(s, `"`) && len(s) >= 2:
		unquote := strings.NewReplacer(`\"`, `"`, `\\`, `\`, `\n`, "\n", `\t`, "\t", `\r`, "\r")
		return oracleTerm{Type: "literal", Value: unquote.Replace(s[1 : len(s)-1])}, true
	case strings.HasPrefix(s, "_:"):
		return oracleTerm{Type: "bnode", Value: s[2:]}, true
	default:
		return oracleTerm{Type: "literal", Value: s}, true
	}
}

func oracleJSON(t testing.TB, r *Result) []byte {
	var out oracleDoc
	out.Head.Vars = r.Vars
	out.Partial, out.UnreachableSites = r.Stats.Partial, r.Stats.UnreachableSites
	out.Results.Bindings = make([]map[string]oracleTerm, 0, len(r.Rows))
	for _, row := range r.Rows {
		b := make(map[string]oracleTerm, len(r.Vars))
		for i, v := range r.Vars {
			if term, ok := oracleClassify(row[i]); ok {
				b[v] = term
			}
		}
		out.Results.Bindings = append(out.Results.Bindings, b)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatalf("oracle JSON: %v", err)
	}
	return buf.Bytes()
}

func oracleCSV(t testing.TB, r *Result) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	recs := [][]string{r.Vars}
	for _, row := range r.Rows {
		rec := make([]string, len(r.Vars))
		for i := range r.Vars {
			term, _ := oracleClassify(row[i])
			rec[i] = term.Value
		}
		recs = append(recs, rec)
	}
	if err := cw.WriteAll(recs); err != nil {
		t.Fatalf("oracle CSV: %v", err)
	}
	return buf.Bytes()
}

func oracleTSV(r *Result) []byte {
	var buf bytes.Buffer
	header := make([]string, len(r.Vars))
	for i, v := range r.Vars {
		header[i] = "?" + v
	}
	fmt.Fprintln(&buf, strings.Join(header, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(&buf, strings.Join(row, "\t"))
	}
	return buf.Bytes()
}

// checkAgainstOracle is the property the differential tests and the fuzz
// target share: what WriteJSON, WriteCSV and WriteTSV write of r, reading
// its ID table, is what the oracle writes of r.Rows.
func checkAgainstOracle(t testing.TB, r *Result) {
	t.Helper()
	checkBodies(t, r, func(format string) []byte {
		var buf bytes.Buffer
		if err := encoders[format](r, &buf); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		return buf.Bytes()
	})
}

// checkBodies holds body(format) for json, csv and tsv against the
// oracle's encoding of r.Rows: the JSON documents unmarshal to the same
// value, the CSV reads back through encoding/csv to the same records, the
// TSV bytes are equal.
func checkBodies(t testing.TB, r *Result, body func(format string) []byte) {
	t.Helper()
	got := body("json")
	var gotDoc, wantDoc any
	if err := json.Unmarshal(got, &gotDoc); err != nil {
		t.Fatalf("WriteJSON wrote invalid JSON: %v\n%.2000q", err, got)
	}
	if err := json.Unmarshal(oracleJSON(t, r), &wantDoc); err != nil {
		t.Fatalf("oracle wrote invalid JSON: %v", err)
	}
	if !reflect.DeepEqual(gotDoc, wantDoc) {
		t.Fatalf("JSON differs from the oracle for %q, %d rows\n got %.2000q\nwant %.2000q", r.Vars, len(r.Rows), got, oracleJSON(t, r))
	}

	readBack := func(b []byte) [][]string {
		cr := csv.NewReader(bytes.NewReader(b))
		cr.FieldsPerRecord = -1
		recs, err := cr.ReadAll()
		if err != nil {
			t.Fatalf("CSV does not read back: %v\n%.2000q", err, b)
		}
		return recs
	}
	got = body("csv")
	if want := oracleCSV(t, r); !reflect.DeepEqual(readBack(got), readBack(want)) {
		t.Fatalf("CSV records differ from the oracle for %q, %d rows\n got %.2000q\nwant %.2000q", r.Vars, len(r.Rows), got, want)
	}

	got = body("tsv")
	if want := oracleTSV(r); !bytes.Equal(got, want) {
		t.Fatalf("TSV differs from the oracle for %q, %d rows\n got %.2000q\nwant %.2000q", r.Vars, len(r.Rows), got, want)
	}
}

// nastyCells are the building blocks of generated results: every term
// kind, unbound, and the bytes each format must escape or pass through.
var nastyCells = []string{
	"", "<http://ex/a>", "<>", "_:b0", `"plain"`, `""`, `"`, "bare word", " leading space",
	`"quote \" backslash \\ newline \n return \r tab \t"`, `"unknown \x escape"`, `"trailing\"`,
	"\"raw\nnewline,comma\"", "\"crlf\r\nline\"", "\"\x00\x01\x1f\x7f\"", "\"bad utf8 \xff\xc0 \xe2\x82\"",
	`"<html>&amp;</html>"`, "\"   é 日本\"", `\.`, `"\."`, "<http://ex/with\"quote>", "\t", "\"\ttab first\"",
}

// TestEncodersMatchOracle: over hand-picked edge cases and generated
// results the append encoders agree with the encoders they replaced.
func TestEncodersMatchOracle(t *testing.T) {
	partial := func(r *Result, sites ...int) *Result {
		r.Stats = QueryStats{Partial: true, UnreachableSites: sites}
		return r
	}
	cases := []*Result{
		sampleResult(),
		resultOf([]string{}, nil),
		// A zero-variable answer: rows without cells, which the table alone
		// cannot count.
		resultOf([]string{}, [][]string{{}, {}, {}}),
		resultOf([]string{"x"}, nil),
		resultOf([]string{"x"}, [][]string{{""}, {"<a>"}}),
		// An all-unbound row among bound ones.
		resultOf([]string{"a", "b", "c"}, [][]string{{"<a>", "", ""}, {"", "", ""}, {"", `"b"`, `"c"`}}),
		partial(resultOf([]string{"x"}, nil)),
		partial(resultOf([]string{"x"}, [][]string{{"_:b"}}), 0, 3, 12),
		resultOf([]string{`q"uote`, "new\nline", "é"}, [][]string{{"<a>", "<b>", "<c>"}}),
	}
	rng := rand.New(rand.NewSource(14))
	for n := 0; n < 300; n++ {
		vars := make([]string, rng.Intn(5))
		for i := range vars {
			vars[i] = fmt.Sprintf("v%d", i)
		}
		rows := make([][]string, rng.Intn(8))
		for i := range rows {
			rows[i] = make([]string, len(vars))
			for j := range rows[i] {
				rows[i][j] = nastyCells[rng.Intn(len(nastyCells))]
			}
		}
		r := resultOf(vars, rows)
		if rng.Intn(4) == 0 {
			partial(r, rng.Perm(rng.Intn(4))...)
		}
		cases = append(cases, r)
	}
	// Enough rows to cross several chunk boundaries.
	var big [][]string
	for i := 0; i < 5000; i++ {
		big = append(big, []string{fmt.Sprintf("<http://ex/subject/%d>", i), nastyCells[i%len(nastyCells)]})
	}
	cases = append(cases, resultOf([]string{"s", "o"}, big))
	for _, r := range cases {
		checkAgainstOracle(t, r)
	}
}

// resultFromFuzz cuts fuzz bytes into a Result: lines are rows, '|'
// separates cells, the first line names the variables; a row is cut or
// padded with unbound cells to their number. Variable names are made valid
// UTF-8 — two distinct invalid names would collapse into one JSON key —
// while cells keep every byte.
func resultFromFuzz(data []byte, partial bool) *Result {
	lines := strings.Split(string(data), "\n")
	vars := []string{}
	if lines[0] != "" {
		vars = strings.Split(strings.ToValidUTF8(lines[0], "?"), "|")
	}
	var rows [][]string
	for _, line := range lines[1:] {
		row := make([]string, len(vars))
		copy(row, strings.Split(line, "|"))
		rows = append(rows, row)
	}
	r := resultOf(vars, rows)
	if partial {
		r.Stats = QueryStats{Partial: true, UnreachableSites: []int{len(data) % 7}}
	}
	return r
}

func FuzzWriteJSON(f *testing.F) {
	f.Add([]byte("x|n\n<http://ex/a>|\"Aristotle\"\n_:b0|\n"), false)
	f.Add([]byte("\n\n<a>"), true)
	f.Add([]byte("v\n"+strings.Join(nastyCells, "\nx|")), true)
	f.Add([]byte("a|a|b\n<1>|<2>\n|\"\\\"\n\"\xff\\u0041\"|\x00"), false)
	f.Add([]byte("\n\n\n"), false)                 // zero variables, three rows
	f.Add([]byte("a|b\n<x>|_:y\n|\n\"z\"|"), true) // an all-unbound row
	f.Fuzz(func(t *testing.T, data []byte, partial bool) {
		checkAgainstOracle(t, resultFromFuzz(data, partial))
	})
}

// TestQueryBodiesMatchOracle: end to end, what /query writes — encoded
// from the engine's ID table, Rows never built — is in every format the
// oracle's encoding of the Rows Server.Query decodes for embedded callers,
// for all 20 WatDiv templates under both fragmentations.
func TestQueryBodiesMatchOracle(t *testing.T) {
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			db, ds, workload := watdivDB(t, 50000, Config{Strategy: strategy})
			dep, err := db.DeployParsed(workload)
			if err != nil {
				t.Fatal(err)
			}
			srv := dep.StartServer(ServerConfig{})
			defer srv.Close()
			h, rows := srv.Handler(), 0
			for i, tpl := range watdiv.Templates() {
				pick := func(pool []string) string { return "<" + pool[i%len(pool)] + ">" }
				query := strings.NewReplacer("%user%", pick(ds.Users), "%product%", pick(ds.Products),
					"%retailer%", pick(ds.Retailers), "%website%", pick(ds.Websites), "%category%", pick(ds.Categories)).Replace(tpl.Text)
				res, err := srv.Query(context.Background(), query)
				if err != nil {
					t.Fatalf("%s: %v", tpl.Name, err)
				}
				rows += len(res.Rows)
				checkBodies(t, res, func(format string) []byte {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", "/query?format="+format, strings.NewReader(query)))
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: /query?format=%s answered %d: %s", tpl.Name, format, rec.Code, rec.Body)
					}
					return rec.Body.Bytes()
				})
			}
			if rows < 10000 {
				t.Errorf("the 20 templates answered %d rows; want a workload-scale run", rows)
			}
		})
	}
}

// TestWriteJSONWireFormat pins what the README promises beyond the
// oracle's "same value": compact, one binding per line, keys in
// projection order, and "vars" an array even when Vars is nil.
func TestWriteJSONWireFormat(t *testing.T) {
	r := resultOf([]string{"z", "a"}, [][]string{{"<http://ex/1>", `"one"`}, {"", "_:b"}})
	r.Stats = QueryStats{Partial: true, UnreachableSites: []int{2, 5}}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{"head":{"vars":["z","a"]},"results":{"bindings":[
{"z":{"type":"uri","value":"http://ex/1"},"a":{"type":"literal","value":"one"}},
{"a":{"type":"bnode","value":"b"}}
]},"partial":true,"unreachableSites":[2,5]}
`
	if buf.String() != want {
		t.Errorf("wire format:\n got %s\nwant %s", buf.String(), want)
	}
	buf.Reset()
	if err := resultOf(nil, nil).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if want := "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[\n]}}\n"; buf.String() != want {
		t.Errorf("empty result = %q, want %q", buf.String(), want)
	}
}

// TestTermStringClassifyRoundTrip: the N-Triples rendering the
// dictionary keeps per ID and the serializers' reading of it are
// inverses, for every character Term.String escapes.
func TestTermStringClassifyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		term rdf.Term
		typ  string
	}{
		{rdf.NewIRI("http://ex/a"), "uri"},
		{rdf.NewBlank("b0"), "bnode"},
		{rdf.NewLiteral("plain"), "literal"},
		{rdf.NewLiteral(""), "literal"},
		{rdf.NewLiteral(`quote " inside`), "literal"},
		{rdf.NewLiteral(`back \ slash`), "literal"},
		{rdf.NewLiteral("new\nline"), "literal"},
		{rdf.NewLiteral("carriage\rreturn"), "literal"},
		{rdf.NewLiteral("tab\tstop"), "literal"},
		{rdf.NewLiteral(`\n is not a newline, \" not a quote`), "literal"},
		{rdf.NewLiteral("all \" \\ \n \r \t at once\\"), "literal"},
	} {
		typ, value, ok := classifyTerm(tc.term.String())
		if !ok || typ != tc.typ || value != tc.term.Value {
			t.Errorf("classifyTerm(%q) = %q, %q, %v; want %q, %q", tc.term.String(), typ, value, ok, tc.typ, tc.term.Value)
		}
	}
}
