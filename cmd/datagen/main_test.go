package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// written hashes the two files datagen writes for these arguments.
func written(t *testing.T, kind string, triples, queries int, seed uint64) (data, workload string) {
	t.Helper()
	c, err := generate(kind, triples, queries, seed)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(write func(io.Writer) error) string {
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	return sum(c.writeData), sum(c.writeWorkload)
}

// TestGoldenBytes: the bytes datagen writes for fixed arguments are the
// ones it wrote when these hashes were recorded (at the commit before the
// graph stopped keeping an insertion order). The end-to-end benchmark pins
// its input file by hash and refuses to run on another, so a generator
// that emits the same triples in another order, or a writer that formats
// them differently, has to fail here, by name.
func TestGoldenBytes(t *testing.T) {
	for _, tc := range []struct{ kind, data, workload string }{
		{"watdiv", "93ca5a8ed3560b528cba9991ac96dfcf9471c67c2ad92713e32a598340808fd7", "a91a1f80e3ec3ad5f8a18a4a258ec27f08c95b04765b5f5feadb00e5f0da1719"},
		{"dbpedia", "d1feffb626b86d9684340a2bd8d5b6caca059b052296736d14002032695adbc3", "9cffaa8a5c8347a03b91845affc6cd22ad9f0dd6ebdcd622c7e57635b4e65836"},
	} {
		data, workload := written(t, tc.kind, 2000, 40, 7)
		if data != tc.data {
			t.Errorf("%s -triples 2000 -queries 40 -seed 7: the .nt hashes to %s, recorded %s", tc.kind, data, tc.data)
		}
		if workload != tc.workload {
			t.Errorf("%s -triples 2000 -queries 40 -seed 7: the .rq hashes to %s, recorded %s", tc.kind, workload, tc.workload)
		}
	}
}

// TestBenchmarkPins: with the arguments benchmark/build.go runs datagen
// with, the two files hash to what benchmark/pinned.json pins. Skipped
// where the harness is not checked out beside the module.
func TestBenchmarkPins(t *testing.T) {
	b, err := os.ReadFile("../../benchmark/pinned.json")
	if err != nil {
		t.Skipf("no pinned hashes to check against: %v", err)
	}
	var pinned struct{ DataSHA256, WorkloadSHA256 string }
	if err := json.Unmarshal(b, &pinned); err != nil {
		t.Fatalf("benchmark/pinned.json: %v", err)
	}
	data, workload := written(t, "watdiv", 100000, 400, 1)
	if data != pinned.DataSHA256 || workload != pinned.WorkloadSHA256 {
		t.Errorf("the harness's inputs differ from benchmark/pinned.json, so it would refuse to run\n  data     %s (pinned %s)\n  workload %s (pinned %s)",
			data, pinned.DataSHA256, workload, pinned.WorkloadSHA256)
	}
}
