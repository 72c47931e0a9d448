// Package spec is the contract between the end-to-end harness and the
// traced runner (benchmark/layers): the harness writes a Job, the
// runner answers with a Ledger.
package spec

// Job tells the traced runner what to rebuild and replay.
type Job struct {
	Workload  string `json:"workload"`
	Strategy  string `json:"strategy"`
	DataPath  string `json:"data_path"`
	DesignRQ  string `json:"design_rq"` // the design workload fragmentation is mined from
	Networked bool   `json:"networked"` // every site behind the loopback transport
	Durable   bool   `json:"durable"`   // WAL with fsync per batch, as wd-churn runs
	// CheckpointBytes is the durable run's -checkpoint-bytes.
	CheckpointBytes int64  `json:"checkpoint_bytes"`
	TmpDir          string `json:"tmp_dir"`
	TracePath       string `json:"trace_path"` // where the spans are written
	// Queries is the first cycle of the workload's op sequence.
	Queries []Query `json:"queries"`
	// Updates is the writer's first cycle (wd-churn only).
	Updates []Update `json:"updates"`
}

// Query is one replayed query.
type Query struct {
	Template string `json:"template"`
	Text     string `json:"text"`
}

// Update is one replayed update batch.
type Update struct {
	Method string `json:"method"`
	Body   string `json:"body"`
}

// Ledger is the traced runner's answer: per-layer metrics by name, and
// each layer's share of the in-process end-to-end time.
type Ledger struct {
	Metrics map[string]Metric  `json:"metrics"`
	Shares  map[string]float64 `json:"shares"`
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Span is one timed call into a layer. Every level of the call tree is
// executed and timed by its own call from the benchmark, so a parent's
// children do not lie inside its interval; a layer's self time is its
// span's duration minus its children's durations.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root span of an operation
	Op      int    `json:"op"`     // the operation all its spans share
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}
