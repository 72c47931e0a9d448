package main

import (
	"context"
	"testing"
	"time"
)

// TestSmokeRun drives one short run of the cheapest workload through
// real processes. It needs the binaries a previous run of the harness
// built, and is skipped under -short.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	l, err := findLayout()
	if err != nil || !isFile(l.bin("rdffrag")) || !isFile(l.bin("datagen")) {
		t.Skip("no built binaries under .bench_build; run the harness once first")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	p, err := prepare(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(ctx, p, findWorkload("wd-churn"), 3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("run: correct=%v failed=%d attempted=%d: %s", rep.Correct, rep.Failed, rep.Attempted, rep.FirstError)
	}
	for _, name := range []string{"rss_peak_mb", "alloc_kb_per_query", "setup_s"} {
		if rep.EndToEnd[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive figure", name, rep.EndToEnd[name].Value)
		}
	}
	for _, name := range headlineMetrics {
		if rep.PerLayer[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive figure", name, rep.PerLayer[name].Value)
		}
	}
	if rep.PerLayer["wal.fsyncs_per_update"].Value <= 0 || rep.PerLayer["durable.recover_s"].Value <= 0 {
		t.Errorf("churn run without fsyncs or recovery: %+v", rep.PerLayer)
	}
}
