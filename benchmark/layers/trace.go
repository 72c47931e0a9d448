package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"rdffrag/benchmark/spec"
)

// tracer keeps spans in memory until the run ends. Disabled, timed
// still runs the call but records nothing, which is how the tracing
// overhead is measured.
type tracer struct {
	enabled bool
	t0      time.Time
	spans   []spec.Span
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, op, parent int, fn func()) (id int, d time.Duration) {
	if !t.enabled {
		start := time.Now()
		fn()
		return -1, time.Since(start)
	}
	id = len(t.spans)
	t.spans = append(t.spans, spec.Span{ID: id, Parent: parent, Op: op, Name: name})
	start := time.Now()
	fn()
	end := time.Now()
	t.spans[id].StartNS, t.spans[id].EndNS = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return id, end.Sub(start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ledger turns the time spent under each span name into each layer's
// self time.
type ledger struct {
	spent    map[string]time.Duration // span name → Σ duration over the replay
	children map[string][]string      // the call tree, by span name
	roots    []string
}

// layerOf names the layer a span belongs to.
var layerOf = map[string]string{
	"http.query": "http", "http.update": "http",
	"sparql.parse": "sparql", "rdffrag.query_parsed": "rdffrag", "results.write_json": "results",
	"serve.query": "serve", "decompose.decompose": "decompose", "plan.optimize": "plan",
	"exec.query_prepared": "exec", "transport.eval_stream": "transport",
	"cluster.eval": "cluster", "match.find_batches": "match", "cluster.join": "cluster.join",
	"update.apply": "update", "wal.append": "wal.append", "wal.sync": "wal.sync", "rdf.add": "rdf",
}

func newLedger(networked bool) *ledger {
	eval := "cluster.eval"
	if networked {
		eval = "transport.eval_stream"
	}
	return &ledger{
		spent: map[string]time.Duration{},
		roots: []string{"http.query", "http.update"},
		children: map[string][]string{
			"http.query":            {"sparql.parse", "rdffrag.query_parsed", "results.write_json"},
			"rdffrag.query_parsed":  {"serve.query"},
			"serve.query":           {"decompose.decompose", "plan.optimize", "exec.query_prepared"},
			"exec.query_prepared":   {eval, "cluster.join"},
			"transport.eval_stream": {"cluster.eval"},
			"cluster.eval":          {"match.find_batches"},
			"http.update":           {"update.apply"},
			"update.apply":          {"wal.append", "wal.sync", "rdf.add"},
		},
	}
}

func (l *ledger) add(span string, d time.Duration) { l.spent[span] += d }

// selfTimes walks the tree from the roots. A span's self time is its
// duration minus its children's. Every level is timed by its own call,
// so children that run concurrently inside their parent (subquery
// evaluation beside the join) can add up to more than the parent; they
// are then scaled to fit it and the excess is reported as overlap. The
// self times therefore sum to the roots' durations.
func (l *ledger) selfTimes() (self map[string]time.Duration, overlap time.Duration) {
	self = map[string]time.Duration{}
	var walk func(span string, budget float64)
	walk = func(span string, budget float64) {
		spent := float64(l.spent[span])
		if spent <= 0 {
			return
		}
		var kids float64
		for _, k := range l.children[span] {
			kids += float64(l.spent[k])
		}
		scale := budget / spent // what one measured unit of a child is worth
		if kids > spent {
			overlap += time.Duration((kids - spent) * scale)
			scale = budget / kids
		} else {
			self[layerOf[span]] += time.Duration((spent - kids) * scale)
		}
		for _, k := range l.children[span] {
			walk(k, float64(l.spent[k])*scale)
		}
	}
	for _, r := range l.roots {
		walk(r, float64(l.spent[r]))
	}
	return self, overlap
}

func us(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}
