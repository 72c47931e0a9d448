package bench

import (
	"fmt"
	"strings"
	"testing"
)

// smallCfg keeps unit-test runtime low; the cmd/experiments binary and the
// root benchmarks use the full defaults.
func smallCfg() Config {
	return Config{
		DBpediaTriples: 3000,
		DBpediaQueries: 400,
		WatDivTriples:  2500,
		WatDivQueries:  200,
		Sites:          4,
		Workers:        2,
		Clients:        4,
		SampleFraction: 0.05,
		Seed:           77,
	}
}

func TestFig8a(t *testing.T) {
	s := NewSuite(smallCfg())
	tab, err := s.Fig8a()
	if err != nil {
		t.Fatalf("Fig8a: %v", err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// FAP count must be non-increasing with minSup.
	prev := 1 << 30
	for _, row := range tab.Rows {
		var n int
		if _, err := fscan(row[1], &n); err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		if n > prev {
			t.Errorf("FAP count rose with minSup: %v", tab.Rows)
		}
		prev = n
	}
}

func TestFig8b(t *testing.T) {
	s := NewSuite(smallCfg())
	tab, err := s.Fig8b()
	if err != nil {
		t.Fatalf("Fig8b: %v", err)
	}
	// Coverage must be non-decreasing and end high.
	last := tab.Rows[len(tab.Rows)-1][1]
	if !strings.HasSuffix(last, "%") {
		t.Fatalf("bad coverage cell %q", last)
	}
	var cov float64
	if _, err := fscan(strings.TrimSuffix(last, "%"), &cov); err != nil {
		t.Fatalf("parse %q: %v", last, err)
	}
	if cov < 90 {
		t.Errorf("final coverage %.1f%% < 90%%", cov)
	}
}

func TestBuildStrategyAllCorrect(t *testing.T) {
	s := NewSuite(smallCfg())
	ds, err := s.dbpedia()
	if err != nil {
		t.Fatalf("DBpedia: %v", err)
	}
	sample := sampleQueries(ds.Log, 0.03)
	// Every strategy must give the centralized answer, row for row, on
	// a sample of the log.
	for _, name := range StrategyNames {
		r, st, err := s.buildStrategy(ds, name)
		if err != nil {
			t.Fatalf("buildStrategy(%s): %v", name, err)
		}
		if st.Redundancy < 1.0 {
			t.Errorf("%s redundancy %f < 1", name, st.Redundancy)
		}
		for qi, q := range sample {
			got, _, err := r.Query(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", name, qi, err)
			}
			if want := centralAnswer(q, ds.Graph); !sameAnswer(got, want) {
				t.Errorf("%s query %d: got %v with %d rows, want %v with %d", name, qi, got.Vars, got.Len(), want.Vars, want.Len())
			}
		}
	}
}

func TestFig12QueriesCorrectAllStrategies(t *testing.T) {
	s := NewSuite(smallCfg())
	ds, err := s.watDiv()
	if err != nil {
		t.Fatalf("WatDiv: %v", err)
	}
	qs, names, err := ds.WatDiv.BenchmarkQueries(99)
	if err != nil {
		t.Fatalf("BenchmarkQueries: %v", err)
	}
	for _, name := range StrategyNames {
		r, _, err := s.buildStrategy(ds, name)
		if err != nil {
			t.Fatalf("buildStrategy(%s): %v", name, err)
		}
		for i, q := range qs {
			got, _, err := r.Query(q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, names[i], err)
			}
			if want := centralAnswer(q, ds.Graph); !sameAnswer(got, want) {
				t.Errorf("%s %s: got %v with %d rows, want %v with %d", name, names[i], got.Vars, got.Len(), want.Vars, want.Len())
			}
		}
	}
}

func TestSample(t *testing.T) {
	s := NewSuite(smallCfg())
	ds, err := s.dbpedia()
	if err != nil {
		t.Fatalf("DBpedia: %v", err)
	}
	sm := sampleQueries(ds.Log, 0.01)
	if len(sm) < 10 || len(sm) > len(ds.Log) {
		t.Errorf("sample size = %d", len(sm))
	}
	all := sampleQueries(ds.Log, 1.0)
	if len(all) != len(ds.Log) {
		t.Errorf("full sample = %d, want %d", len(all), len(ds.Log))
	}
}

func TestTable1Shapes(t *testing.T) {
	s := NewSuite(smallCfg())
	tab, err := s.Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	red := map[string]float64{}
	for _, row := range tab.Rows {
		var v float64
		if _, err := fscan(row[1], &v); err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		red[row[0]] = v
	}
	// Shape check on the DBpedia-like corpus: SHAPE is the most
	// redundant; WARP is near 1 on sparse graphs.
	if red["SHAPE"] <= red["WARP"] {
		t.Errorf("SHAPE (%.2f) should exceed WARP (%.2f)", red["SHAPE"], red["WARP"])
	}
	if red["VF"] > 3 || red["HF"] > 3 {
		t.Errorf("VF/HF redundancy implausible: %v", red)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tab.addRow("1", "2")
	out := tab.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1") {
		t.Errorf("render = %q", out)
	}
}

func fscan(s string, dst interface{}) (int, error) {
	return fmt.Sscan(s, dst)
}

func TestServerThroughputShapes(t *testing.T) {
	cfg := smallCfg()
	cfg.NetPerMessage = -1 // idealized network keeps this test fast
	cfg.NetPerKB = -1
	s := NewSuite(cfg)
	tab, err := s.ServerThroughput()
	if err != nil {
		t.Fatalf("ServerThroughput: %v", err)
	}
	// VF and HF each swept over 1..Clients doubling: 3 rows apiece at
	// Clients=4.
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var qps float64
		if _, err := fscan(row[2], &qps); err != nil || qps <= 0 {
			t.Errorf("row %v: bad QPS cell", row)
		}
		if !strings.HasSuffix(row[4], "s") { // p95 is a duration
			t.Errorf("row %v: bad p95 cell", row)
		}
	}
}
