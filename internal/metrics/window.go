// Package metrics holds the recent-latency window every serving layer
// reports percentiles from: the query server's p50/p95/p99, the WAL's
// append and fsync p99s and each remote site client's p99.
package metrics

import (
	"slices"
	"sync"
	"time"
)

// Window is a fixed-size ring of the most recent latency samples; once
// full, each new sample overwrites the oldest. Safe for concurrent use.
//
// Percentiles uses the nearest-rank index min(int(p·n), n−1) over the n
// samples held. Remote site clients once used (n·99+99)/100 for their
// p99, which lands one sample higher at some n, so site_p99_ms now reads
// the same rank as the server's and the WAL's p99s.
type Window struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
}

// NewWindow returns a window keeping the newest size samples (size > 0).
func NewWindow(size int) *Window {
	return &Window{samples: make([]time.Duration, 0, size)}
}

// Observe records one sample.
func (w *Window) Observe(d time.Duration) {
	w.mu.Lock()
	if len(w.samples) < cap(w.samples) {
		w.samples = append(w.samples, d)
	} else {
		w.samples[w.next] = d
		w.next = (w.next + 1) % len(w.samples)
	}
	w.mu.Unlock()
}

// Percentiles returns the p-th percentile (0 ≤ p ≤ 1) of the window for
// each p, in order; all zero before the first sample. The samples are
// copied under the lock and sorted outside it, so a reader never stalls
// Observe for the sort.
func (w *Window) Percentiles(ps ...float64) []time.Duration {
	w.mu.Lock()
	sorted := slices.Clone(w.samples)
	w.mu.Unlock()
	out := make([]time.Duration, len(ps))
	if len(sorted) == 0 {
		return out
	}
	slices.Sort(sorted)
	for i, p := range ps {
		out[i] = sorted[min(int(p*float64(len(sorted))), len(sorted)-1)]
	}
	return out
}
