package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json must stay inside the limits the acceptance driver
// refuses a file for, and must name exactly what the harness prints.
func TestBenchmarkFileMeetsContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside benchmark/: ", err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	if runs := 4 + 22*len(f.Workloads); len(f.Workloads) < 2 || len(f.Workloads) > 8 || runs*f.RunSeconds > 3420 {
		t.Errorf("%d workloads × %d s do not fit the driver's budget", len(f.Workloads), f.RunSeconds)
	}
	for _, w := range f.Workloads {
		use(w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is not one the harness runs", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(f.Workloads), len(workloads))
	}
	setup := false
	for _, m := range f.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup || len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 {
		t.Errorf("end_to_end needs 1–16 metrics including setup_s; has %d", len(f.EndToEnd))
	}
	if len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("per_layer has %d metrics", len(f.PerLayer))
	}
	for _, m := range f.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}
