// Command layers is the benchmark's traced run. It rebuilds the
// workload's deployment stage by stage through the public functions
// DB.DeployParsed calls, timing each, then replays the first cycle of
// the workload's op sequence in-process, recording a span around a call
// into each layer's public functions. It is the only part of the
// benchmark that imports rdffrag's packages; the end-to-end harness
// starts it with a spec.Job and reads a spec.Ledger from its standard
// output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rdffrag/benchmark/spec"
)

func main() {
	jobPath := flag.String("job", "", "path of the spec.Job JSON file written by the harness")
	flag.Parse()
	if *jobPath == "" {
		fmt.Fprintln(os.Stderr, "layers: run through the harness: go run -C benchmark . --workload NAME --trace 1")
		os.Exit(2)
	}
	b, err := os.ReadFile(*jobPath)
	if err != nil {
		fatal(err)
	}
	var job spec.Job
	if err := json.Unmarshal(b, &job); err != nil {
		fatal(fmt.Errorf("%s: %w", *jobPath, err))
	}
	led, err := run(job)
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(led); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layers:", err)
	os.Exit(1)
}
