package rdffrag

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"rdffrag/internal/exec"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Allocation guards for the bindings-to-bytes path: what it allocates
// must not grow with the row count (the rows of a large answer used to
// cost a map, a slice and a string per cell each).

func wideResult(rows int) *Result {
	cells := make([][]string, rows)
	for i := range cells {
		cells[i] = []string{fmt.Sprintf("<http://ex/subject/%d>", i), fmt.Sprintf(`"name %d"`, i), fmt.Sprintf("_:b%d", i)}
	}
	return resultOf([]string{"s", "n", "o"}, cells)
}

var encoders = map[string]func(*Result, io.Writer) error{
	"json": (*Result).WriteJSON, "csv": (*Result).WriteCSV, "tsv": (*Result).WriteTSV,
}

func TestWriteAllocsIndependentOfRows(t *testing.T) {
	r := wideResult(10000)
	for name, write := range encoders {
		allocs := testing.AllocsPerRun(20, func() {
			if err := write(r, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		// 0 with a warm pool; a pool miss (the race detector forces
		// some) costs the chunk and its buffer.
		if allocs > 8 {
			t.Errorf("%s: %.0f allocs for 10000 rows, want a constant <= 8", name, allocs)
		}
	}
}

// TestDecodeResultAllocs: taking the engine's table as the answer costs a
// constant (the Result), however many rows it has, and decodeRows — what
// only the embedded entry points pay — one cell array and one header array.
func TestDecodeResultAllocs(t *testing.T) {
	dep := &Deployment{db: Open(Config{})}
	d := dep.db.graph.Dict
	b := &match.Bindings{Vars: []string{"s", "n", "o"}}
	for i := 0; i < 10000; i++ {
		b.Rows = append(b.Rows,
			d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/subject/%d", i))), d.Encode(rdf.NewLiteral(fmt.Sprintf("name %d", i%100))), rdf.NoID)
	}
	q, stats := &sparql.Graph{}, &exec.QueryStats{}
	var res *Result
	if allocs := testing.AllocsPerRun(20, func() { res = dep.newResult(q, b, stats) }); allocs > 2 {
		t.Errorf("newResult allocates %.0f objects for 10000 rows, want <= 2", allocs)
	}
	if allocs := testing.AllocsPerRun(20, res.decodeRows); allocs > 2 {
		t.Errorf("decodeRows allocates %.0f objects for 10000 rows, want 2", allocs)
	}
	if got := res.Rows[9999]; len(res.Rows) != 10000 || got[0] != "<http://ex/subject/9999>" || got[1] != `"name 99"` || got[2] != "" {
		t.Errorf("decoded %d rows, the last %q", len(res.Rows), got)
	}
}

// cutWriter accepts limit bytes, then fails; writes attempted after the
// failure are counted.
type cutWriter struct {
	limit, calls, lateCalls int
	failed                  bool
}

func (w *cutWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.failed {
		w.lateCalls++
		return 0, errors.New("client gone")
	}
	if len(p) > w.limit {
		w.failed = true
		return w.limit, errors.New("client gone")
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteStopsAtFirstFailedWrite: once the writer fails, an encoder
// returns its error and never calls Write again.
func TestWriteStopsAtFirstFailedWrite(t *testing.T) {
	r := wideResult(10000)
	for name, write := range encoders {
		w := &cutWriter{limit: 100 << 10}
		if err := write(r, w); err == nil {
			t.Errorf("%s: no error from a writer that failed after 100 KB", name)
		}
		if w.lateCalls != 0 || w.calls < 2 {
			t.Errorf("%s: %d writes, %d of them after the failure; want several and none late", name, w.calls, w.lateCalls)
		}
	}
}
