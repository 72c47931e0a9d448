package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The data set is fixed: --seed varies the replayed queries, not the
// graph, so every run of every commit loads the same bytes and a change
// to the generator shows as a hash mismatch instead of as a shifted
// metric.
const (
	dataSeed    = 1
	dataTriples = 100000
	dataQueries = 400
)

// layout is where a checkout keeps the benchmark's files. Everything
// the harness writes lies under build (ignored by git) or out.
type layout struct {
	root  string // the checkout: holds cmd/, internal/, benchmark/
	bench string // root/benchmark
	build string // root/.bench_build: binaries, data, temp directories
	out   string // bench/out: traces, reports, logs of failed runs
}

// findLayout locates the checkout from the working directory, which is
// benchmark/ under `go run -C benchmark .` and may be the root
// otherwise.
func findLayout() (layout, error) {
	wd, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for _, root := range []string{filepath.Dir(wd), wd} {
		if isFile(filepath.Join(root, "benchmark", "go.mod")) && isFile(filepath.Join(root, "cmd", "rdffrag", "main.go")) {
			return layout{
				root:  root,
				bench: filepath.Join(root, "benchmark"),
				build: filepath.Join(root, ".bench_build"),
				out:   filepath.Join(root, "benchmark", "out"),
			}, nil
		}
	}
	return layout{}, fmt.Errorf("no rdffrag checkout around %s: need cmd/rdffrag beside benchmark/", wd)
}

func isFile(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.Mode().IsRegular()
}

func (l layout) bin(name string) string { return filepath.Join(l.build, "bin", name) }

// buildBinaries compiles the program under test and the generator from
// the checked-out tree. The go command's own cache makes a repeat a
// no-op.
func buildBinaries(ctx context.Context, l layout) error {
	for _, name := range []string{"rdffrag", "datagen"} {
		if err := goBuild(ctx, l.root, "./cmd/"+name, l.bin(name)); err != nil {
			return err
		}
	}
	return nil
}

// buildLayers compiles the traced runner from this module. It is the
// one part of the benchmark that imports the program's internal
// packages, so a change to their API can stop it compiling while the
// end-to-end harness still runs; the caller reports that instead of
// failing the run.
func buildLayers(ctx context.Context, l layout) error {
	return goBuild(ctx, l.bench, "./layers", l.bin("layers"))
}

func goBuild(ctx context.Context, dir, pkg, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, b)
	}
	return nil
}

// inputs are the generated data and design-workload files with their
// hashes.
type inputs struct {
	dataPath, workloadPath string
	dataSHA, workloadSHA   string
}

// generateInputs runs datagen and checks its output against the pinned
// hashes.
func generateInputs(ctx context.Context, l layout) (inputs, error) {
	dir := filepath.Join(l.build, "data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return inputs{}, err
	}
	prefix := filepath.Join(dir, "watdiv")
	cmd := exec.CommandContext(ctx, l.bin("datagen"), "-kind", "watdiv",
		"-triples", fmt.Sprint(dataTriples), "-queries", fmt.Sprint(dataQueries),
		"-seed", fmt.Sprint(dataSeed), "-out", prefix)
	cmd.Env = childEnv(os.Environ())
	if out, err := cmd.CombinedOutput(); err != nil {
		return inputs{}, fmt.Errorf("datagen: %w\n%s", err, out)
	}
	in := inputs{dataPath: prefix + ".nt", workloadPath: prefix + ".rq"}
	var err error
	if in.dataSHA, err = fileSHA256(in.dataPath); err != nil {
		return in, err
	}
	if in.workloadSHA, err = fileSHA256(in.workloadPath); err != nil {
		return in, err
	}
	var pinned struct{ DataSHA256, WorkloadSHA256 string }
	b, err := os.ReadFile(filepath.Join(l.bench, "pinned.json"))
	if err != nil {
		return in, err
	}
	if err := json.Unmarshal(b, &pinned); err != nil {
		return in, fmt.Errorf("pinned.json: %w", err)
	}
	if in.dataSHA != pinned.DataSHA256 || in.workloadSHA != pinned.WorkloadSHA256 {
		return in, fmt.Errorf("generated inputs differ from benchmark/pinned.json: the generator changed, so numbers are not comparable with earlier ones\n  data     %s (pinned %s)\n  workload %s (pinned %s)",
			in.dataSHA, pinned.DataSHA256, in.workloadSHA, pinned.WorkloadSHA256)
	}
	return in, nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// commitID is the checked-out commit, or "unknown" outside a git
// repository (the acceptance driver's checkouts are plain directories).
func commitID(ctx context.Context, root string) string {
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
