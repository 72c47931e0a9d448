package main

import (
	"math"
	"testing"
	"time"
)

// near compares a duration given in microseconds with a figure in
// microseconds, allowing for the truncation of scaled shares.
func near(a time.Duration, us float64) bool { return math.Abs(float64(a)/1000-us) < 0.01 }

func TestSelfTimesSubtractChildren(t *testing.T) {
	l := newLedger(false)
	for span, d := range map[string]time.Duration{
		"http.query": 1000, "sparql.parse": 50, "rdffrag.query_parsed": 800, "results.write_json": 100,
		"serve.query": 700, "decompose.decompose": 100, "plan.optimize": 10, "exec.query_prepared": 500,
		"cluster.eval": 300, "match.find_batches": 200, "cluster.join": 100,
	} {
		l.add(span, d*time.Microsecond)
	}
	self, overlap := l.selfTimes()
	want := map[string]float64{
		"http": 50, "sparql": 50, "rdffrag": 100, "results": 100, "serve": 90, "decompose": 100, "plan": 10,
		"exec": 100, "cluster": 100, "match": 200, "cluster.join": 100,
	}
	var sum time.Duration
	for layer, w := range want {
		if !near(self[layer], w) {
			t.Errorf("%s self = %d, want %v", layer, self[layer], w)
		}
		sum += self[layer]
	}
	if overlap != 0 || !near(sum, 1000) {
		t.Errorf("overlap %d, sum %d: self times must add up to the root's 1000", overlap, sum)
	}
}

func TestSelfTimesScaleOverlappingChildren(t *testing.T) {
	// Evaluation (80) and the join (60) were timed one after the other
	// but ran side by side inside a 100-long execution: they are scaled
	// to fit it, the 40 that did not fit is overlap, exec keeps nothing.
	l := newLedger(true)
	for span, d := range map[string]time.Duration{
		"http.query": 100, "rdffrag.query_parsed": 100, "serve.query": 100, "exec.query_prepared": 100,
		"transport.eval_stream": 80, "cluster.eval": 40, "match.find_batches": 40, "cluster.join": 60,
	} {
		l.add(span, d*time.Microsecond)
	}
	self, overlap := l.selfTimes()
	scale := 100.0 / 140
	if !near(self["transport"], 40*scale) || !near(self["match"], 40*scale) || !near(self["cluster.join"], 60*scale) {
		t.Errorf("scaled children: %v", self)
	}
	if self["exec"] != 0 || self["cluster"] != 0 || !near(overlap, 40) {
		t.Errorf("exec self %d, cluster self %d, overlap %d; want 0, 0, 40", self["exec"], self["cluster"], overlap)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if !near(sum, 100) {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := &tracer{}
	ran := false
	id, _ := tr.timed("x", 0, -1, func() { ran = true })
	if !ran || id != -1 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer: ran=%v id=%d spans=%d", ran, id, len(tr.spans))
	}
	tr = &tracer{enabled: true, t0: time.Now()}
	root, _ := tr.timed("root", 7, -1, func() {})
	kid, _ := tr.timed("kid", 7, root, func() {})
	if len(tr.spans) != 2 || tr.spans[kid].Parent != root || tr.spans[kid].Op != 7 || tr.spans[kid].EndNS < tr.spans[kid].StartNS {
		t.Errorf("spans: %+v", tr.spans)
	}
}
