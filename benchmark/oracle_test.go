package main

import (
	"math/rand"
	"strings"
	"testing"
)

const tinyNT = `<a> <likes> <p1> .
<a> <likes> <p2> .
<b> <likes> <p1> .
<p1> <madeBy> <r1> .
<p2> <madeBy> <r2> .
<a> <name> "Ann \"A\"" .
<b> <name> "Bob" .
`

func tinyStore(t *testing.T) *store {
	t.Helper()
	st, err := loadNT(strings.NewReader(tinyNT))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func evalText(t *testing.T, st *store, text string) answer {
	t.Helper()
	q, err := parseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	return st.eval(q)
}

func TestOracleJoinsProjectsAndDedups(t *testing.T) {
	st := tinyStore(t)
	if st.n != 7 {
		t.Fatalf("loaded %d triples", st.n)
	}
	for _, c := range []struct {
		text string
		rows int
	}{
		{`SELECT ?u ?p WHERE { ?u <likes> ?p . ?p <madeBy> <r1> . }`, 2}, // a, b via p1
		{`SELECT ?u WHERE { ?u <likes> ?p . ?p <madeBy> ?r . }`, 2},      // a twice → distinct
		{`SELECT ?u ?r WHERE { ?u <likes> ?p . ?p <madeBy> ?r . }`, 3},
		{`SELECT ?u ?n WHERE { ?u <likes> <p2> . ?u <name> ?n . }`, 1},
		{`SELECT ?u WHERE { ?u <likes> <nosuch> . }`, 0},
		{`SELECT ?p ?x WHERE { <a> <likes> ?p . }`, 2}, // ?x never bound: left out
	} {
		if got := evalText(t, st, c.text); got.rows != c.rows {
			t.Errorf("%s: %d rows, want %d", c.text, got.rows, c.rows)
		}
	}
}

// The oracle's hash of a row must equal the hash readResult computes
// from the JSON form of the same row, whatever the row order, key order
// and whitespace.
func TestOracleHashMatchesJSONHash(t *testing.T) {
	st := tinyStore(t)
	want := evalText(t, st, `SELECT ?u ?n WHERE { ?u <likes> ?p . ?u <name> ?n . }`)
	body := `{"head":{"vars":["u","n"]},
	  "results": {"bindings": [
	    {"n": {"value": "Bob", "type": "literal"}, "u": {"type": "uri", "value": "b"}},
	    {"u": {"type": "uri", "value": "a"}, "n": {"type": "literal", "value": "Ann \"A\""}}
	  ]}}`
	got, err := readResult([]byte(body), []string{"u", "n"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.answer != want {
		t.Errorf("JSON answer %+v, oracle %+v", got.answer, want)
	}
	if len(got.rowValues) != 2 || got.rowValues[1][1] != `Ann "A"` {
		t.Errorf("row values %v", got.rowValues)
	}
	// One value changed: the hash must change.
	other, err := readResult([]byte(strings.Replace(body, `"Bob"`, `"Bop"`, 1)), []string{"u", "n"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if other.answer == want {
		t.Error("a changed value left the answer hash unchanged")
	}
}

func TestReadResultRejectsBadDocuments(t *testing.T) {
	for name, body := range map[string]string{
		"truncated":      `{"head":{"vars":["u"]},"results":{"bindings":[{"u":{"type":"uri","value":"a"}}`,
		"trailing bytes": `{"results":{"bindings":[]}} x`,
		"unbound var":    `{"results":{"bindings":[{"v":{"type":"uri","value":"a"}}]}}`,
		"not an object":  `[1,2]`,
	} {
		if _, err := readResult([]byte(body), []string{"u"}, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	res, err := readResult([]byte(`{"partial": true, "results": {"bindings": []}, "unreachableSites": [1, 2]}`), []string{"u"}, false)
	if err != nil || !res.partial || res.rows != 0 {
		t.Errorf("partial document: %+v, %v", res, err)
	}
}

func TestInstantiateIsSeeded(t *testing.T) {
	pools := entityPools{
		"%user%": {"<u1>", "<u2>", "<u3>"}, "%product%": {"<p1>", "<p2>"}, "%retailer%": {"<r1>", "<r2>", "<r3>"},
		"%website%": {"<w1>"}, "%category%": {"<c1>", "<c2>"},
	}
	a := pool([]string{"L1", "S1", "S7"}, 8, pools, rand.New(rand.NewSource(7)))
	b := pool([]string{"L1", "S1", "S7"}, 8, pools, rand.New(rand.NewSource(7)))
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("pool sizes %d, %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].text != b[i].text {
			t.Fatalf("the same seed gave different pools: %q vs %q", a[i].text, b[i].text)
		}
		if strings.Contains(a[i].text, "%") {
			t.Errorf("placeholder left in %q", a[i].text)
		}
		if seen[a[i].text] {
			t.Errorf("duplicate instance %q", a[i].text)
		}
		seen[a[i].text] = true
		if _, err := parseQuery(a[i].text); err != nil {
			t.Error(err)
		}
	}
	for name, text := range templates {
		if _, err := parseQuery(instantiate(name, pools, rand.New(rand.NewSource(1)))); err != nil {
			t.Errorf("template %s (%s): %v", name, text, err)
		}
	}
}
