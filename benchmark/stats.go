package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// value at rank ceil(p/100·n), 1-based. p in (0,100].
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the middle value (mean of the two middle ones for an even
// count); it sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) (method "exclusive") does, which is
// what the acceptance check uses.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based, fractional
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// segmentBounds cuts n completed cycles into k contiguous segments of
// equal whole-cycle length, dropping the n mod k oldest cycles (they
// count as extra warm-up). It returns the first cycle of each segment
// and the cycles per segment; with fewer than k cycles every cycle is
// its own segment.
func segmentBounds(n, k int) (starts []int, per int) {
	if n <= 0 {
		return nil, 0
	}
	if n < k {
		k = n
	}
	per = n / k
	first := n - per*k
	for i := 0; i < k; i++ {
		starts = append(starts, first+i*per)
	}
	return starts, per
}

// sample is one completed operation of the measured phase.
type sample struct {
	cycle    int     // which pass over the op sequence
	template string  // query template (or update kind)
	start    float64 // seconds since the phase began
	latMS    float64 // client-observed latency, full body read
}

// segmentStat is what one segment of the measured phase reports.
type segmentStat struct {
	n            int
	perS         float64
	p50MS, p95MS float64
}

// segmentStats computes throughput and latency percentiles per segment.
// A segment's duration runs from its first op's start to its last op's
// completion.
func segmentStats(samples []sample, cycles, k int) []segmentStat {
	starts, per := segmentBounds(cycles, k)
	out := make([]segmentStat, len(starts))
	for i, c0 := range starts {
		var lats []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range samples {
			if s.cycle < c0 || s.cycle >= c0+per {
				continue
			}
			lats = append(lats, s.latMS)
			lo = math.Min(lo, s.start)
			hi = math.Max(hi, s.start+s.latMS/1000)
		}
		sort.Float64s(lats)
		st := segmentStat{n: len(lats), p50MS: percentile(lats, 50), p95MS: percentile(lats, 95)}
		if hi > lo {
			st.perS = float64(len(lats)) / (hi - lo)
		}
		out[i] = st
	}
	return out
}

// medianSegment reduces per-segment figures to the run's figure: the
// median segment, so one disturbed stretch of the host does not set it.
func medianSegment(segs []segmentStat) segmentStat {
	var q, p50, p95 []float64
	n := 0
	for _, s := range segs {
		q, p50, p95 = append(q, s.perS), append(p50, s.p50MS), append(p95, s.p95MS)
		n += s.n
	}
	return segmentStat{n: n, perS: median(q), p50MS: median(p50), p95MS: median(p95)}
}

// band is a run of the latency-sorted sample whose templates' latency
// ranges overlap: inside a band a percentile moves smoothly, between
// bands it jumps.
type band struct {
	templates []string
	lo, hi    float64 // percentile range [lo, hi) the band occupies
}

// latencyBands groups templates into bands. Templates are ordered by
// median latency; two neighbours share a band when the faster one's p90
// reaches the slower one's p10.
func latencyBands(samples []sample) []band {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.template] = append(by[s.template], s.latMS)
	}
	type tstat struct {
		name          string
		n             int
		p10, p50, p90 float64
	}
	var ts []tstat
	for name, l := range by {
		sort.Float64s(l)
		ts = append(ts, tstat{name, len(l), percentile(l, 10), percentile(l, 50), percentile(l, 90)})
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].p50 != ts[j].p50 {
			return ts[i].p50 < ts[j].p50
		}
		return ts[i].name < ts[j].name
	})
	var bands []band
	cum, reach := 0, math.Inf(-1)
	total := float64(len(samples))
	for _, t := range ts {
		lo := 100 * float64(cum) / total
		cum += t.n
		hi := 100 * float64(cum) / total
		if len(bands) > 0 && t.p10 <= reach {
			b := &bands[len(bands)-1]
			b.templates, b.hi = append(b.templates, t.name), hi
		} else {
			bands = append(bands, band{[]string{t.name}, lo, hi})
		}
		reach = math.Max(reach, t.p90)
	}
	return bands
}

// bandMargin reports how many percentile points p lies from the nearer
// edge of the band containing it (the top band has no upper edge, the
// bottom band no lower one) and which band that is.
func bandMargin(bands []band, p float64) (float64, band) {
	for i, b := range bands {
		if p < b.lo || p >= b.hi && i != len(bands)-1 {
			continue
		}
		m := math.Inf(1)
		if i > 0 {
			m = math.Min(m, p-b.lo)
		}
		if i < len(bands)-1 {
			m = math.Min(m, b.hi-p)
		}
		return m, b
	}
	return 0, band{}
}

// checkBands is the band-boundary assertion: with more than one band, a
// reported percentile closer than minMargin points to a band edge jumps
// between templates from run to run; the error names the band.
func checkBands(bands []band, minMargin float64, ps ...float64) error {
	for _, p := range ps {
		if m, b := bandMargin(bands, p); m < minMargin {
			return fmt.Errorf("p%.0f lies %.1f percentile points from the edge of the latency band of %v (%.1f–%.1f); needs %.0f",
				p, m, b.templates, b.lo, b.hi, minMargin)
		}
	}
	return nil
}
