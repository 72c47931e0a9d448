package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {95, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100},
	} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 36 samples: p95 is rank ceil(34.2) = 35, the second largest.
	big := make([]float64, 36)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 95); got != 35 {
		t.Errorf("p95 of 1..36 = %v, want 35", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.0, 3.4, 2.8}, 2.85, 3.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSegmentBounds(t *testing.T) {
	starts, per := segmentBounds(23, 5)
	if per != 4 || len(starts) != 5 || starts[0] != 3 || starts[4] != 19 {
		t.Errorf("23 cycles in 5 segments: starts %v per %d; want the first 3 cycles dropped, 4 per segment", starts, per)
	}
	starts, per = segmentBounds(3, 5)
	if per != 1 || len(starts) != 3 {
		t.Errorf("3 cycles: starts %v per %d; want one cycle per segment", starts, per)
	}
	if starts, _ := segmentBounds(0, 5); starts != nil {
		t.Errorf("no cycles: %v", starts)
	}
}

func TestMedianOfSegments(t *testing.T) {
	// Five one-cycle segments of 10 ops; the third is disturbed (ten
	// times slower). The run's figure must be an undisturbed segment's.
	var samples []sample
	at := 0.0
	for c := 0; c < 5; c++ {
		lat := 1.0
		if c == 2 {
			lat = 10
		}
		for i := 0; i < 10; i++ {
			samples = append(samples, sample{cycle: c, template: "T", start: at, latMS: lat})
			at += lat / 1000
		}
	}
	segs := segmentStats(samples, 5, 5)
	if len(segs) != 5 || segs[0].n != 10 {
		t.Fatalf("segments: %+v", segs)
	}
	if math.Abs(segs[0].perS-1000) > 1 || math.Abs(segs[2].perS-100) > 0.1 {
		t.Errorf("segment throughput %v and %v, want 1000 and 100", segs[0].perS, segs[2].perS)
	}
	run := medianSegment(segs)
	if math.Abs(run.perS-1000) > 1 || run.p50MS != 1 || run.p95MS != 1 || run.n != 50 {
		t.Errorf("median segment %+v: a disturbed segment leaked into the run's figure", run)
	}
}

func bandSamples(spec map[string][2]float64, counts map[string]int) []sample {
	var out []sample
	for name, r := range spec {
		n := counts[name]
		for i := 0; i < n; i++ {
			out = append(out, sample{template: name, latMS: r[0] + (r[1]-r[0])*float64(i)/float64(n)})
		}
	}
	return out
}

func TestBandBoundaryAssertion(t *testing.T) {
	// Three templates with disjoint latency ranges: A is 40 % of the
	// sample, B 50 %, C 10 %. p50 lies in B, ten points from A's edge;
	// p95 lies in C (the top band, no upper edge), five points in.
	s := bandSamples(map[string][2]float64{"A": {1, 2}, "B": {10, 12}, "C": {100, 120}},
		map[string]int{"A": 40, "B": 50, "C": 10})
	bands := latencyBands(s)
	if len(bands) != 3 || bands[0].templates[0] != "A" || bands[1].lo != 40 || bands[1].hi != 90 {
		t.Fatalf("bands: %+v", bands)
	}
	if m, b := bandMargin(bands, 50); math.Abs(m-10) > 1e-9 || b.templates[0] != "B" {
		t.Errorf("p50 margin %v in %v, want 10 in B", m, b.templates)
	}
	if m, _ := bandMargin(bands, 95); math.Abs(m-5) > 1e-9 {
		t.Errorf("p95 margin %v, want 5", m)
	}
	if err := checkBands(latencyBands(s), 5, 50, 95); err != nil {
		t.Errorf("margins of 10 and 5 must pass a 5-point check: %v", err)
	}
	// Move the boundary next to the median: A becomes 48 %.
	s = bandSamples(map[string][2]float64{"A": {1, 2}, "B": {10, 12}, "C": {100, 120}},
		map[string]int{"A": 48, "B": 42, "C": 10})
	err := checkBands(latencyBands(s), 5, 50, 95)
	if err == nil || !strings.Contains(err.Error(), "[B]") || !strings.Contains(err.Error(), "p50") {
		t.Errorf("p50 two points from the A/B edge must fail naming B, got %v", err)
	}
	// Overlapping latency ranges are one band: no edge, no failure.
	s = bandSamples(map[string][2]float64{"A": {1, 15}, "B": {10, 20}}, map[string]int{"A": 49, "B": 51})
	if bands := latencyBands(s); len(bands) != 1 {
		t.Errorf("overlapping templates must share a band: %+v", bands)
	}
	if err := checkBands(latencyBands(s), 5, 50, 95); err != nil {
		t.Errorf("a single band has no edges: %v", err)
	}
}

func TestCompareSets(t *testing.T) {
	a := []float64{100, 102, 98, 101, 99}
	b := []float64{90, 91, 89, 92, 90} // 10 % lower
	if v := compareSets(a, b, "higher", 0.05, false); v.Pass || math.Abs(v.Worse-0.1) > 1e-9 {
		t.Errorf("a 10%% drop of a higher-is-better metric must fail a 5%% bound: %+v", v)
	}
	if v := compareSets(a, b, "lower", 0.05, false); !v.Pass || v.Worse > 0 {
		t.Errorf("a 10%% drop of a lower-is-better metric is an improvement: %+v", v)
	}
	wide := []float64{60, 100, 140, 100, 100}
	if v := compareSets(wide, wide, "lower", 0.1, false); v.Pass {
		t.Errorf("a spread wider than the bound must fail: %+v", v)
	}
	if v := compareSets(wide, wide, "lower", 0.1, true); !v.Pass {
		t.Errorf("set-up time is exempt from the spread test: %+v", v)
	}
}
