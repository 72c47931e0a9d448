package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"rdffrag/benchmark/spec"
)

// addLayerLedger runs the in-process traced runner on the first cycle
// of the workload's op sequence and adds its metrics to the report.
func addLayerLedger(ctx context.Context, p *prepared, w *workload, seed int64, rep *report) error {
	if p.layersErr != nil {
		return markLayersUnavailable(p, rep)
	}
	rep.PerLayer["layers.available"] = metric{1, "count"}
	tmp, err := os.MkdirTemp(filepath.Join(p.l.build, "tmp"), w.name+"-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	ops, cycleLen := w.ops(p.pools, seed)
	job := spec.Job{
		Workload: w.name, Strategy: w.strategy, DataPath: p.in.dataPath, DesignRQ: p.in.workloadPath,
		Networked: w.networked, Durable: w.churn, CheckpointBytes: churnCheckpointBytes, TmpDir: tmp,
		TracePath: filepath.Join(p.l.out, "trace-"+w.name+".json"),
	}
	for _, o := range ops[:cycleLen] {
		job.Queries = append(job.Queries, spec.Query{Template: o.template, Text: o.text})
	}
	if w.churn {
		for _, u := range writeSequence(seed, churnCycle) {
			job.Updates = append(job.Updates, spec.Update{Method: u.method, Body: u.body})
		}
	}
	b, err := json.Marshal(job)
	if err != nil {
		return err
	}
	jobPath := filepath.Join(tmp, "job.json")
	if err := os.WriteFile(jobPath, b, 0o644); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, p.l.bin("layers"), "-job", jobPath)
	cmd.Env = childEnv(os.Environ())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("traced run: %w\n%s", err, stderr.Bytes())
	}
	var led spec.Ledger
	if err := json.Unmarshal(out, &led); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	for name, m := range led.Metrics {
		rep.PerLayer[name] = metric(m)
	}
	rep.LedgerShares = led.Shares
	return nil
}

// markLayersUnavailable stands in for the traced runner when it does not
// compile against the checked-out tree: every per-layer metric that
// BENCHMARK.json names and this run did not measure from outside is
// reported as -1, and layers.available as 0, so the run still answers
// with every metric while saying which ones are missing.
func markLayersUnavailable(p *prepared, rep *report) error {
	var bf struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join(p.l.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range bf.PerLayer {
		if _, ok := rep.PerLayer[m.Name]; !ok {
			rep.PerLayer[m.Name] = metric{-1, m.Unit}
		}
	}
	rep.PerLayer["layers.available"] = metric{0, "count"}
	rep.Warnings = append(rep.Warnings, "the traced runner does not build against this tree; its metrics are reported as -1:\n"+p.layersErr.Error())
	return nil
}
