package main

import (
	"strings"
	"testing"
	"time"
)

func TestDueTimeLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// The third op of a 100/s schedule is due at t0+20ms. A stall made
	// the writer send it at t0+50ms and the ack came at t0+52ms: the
	// latency that counts is 32 ms, not the 2 ms the request took.
	due := t0.Add(time.Duration(2 / churnRate * float64(time.Second)))
	if got := dueLatency(due, t0.Add(52*time.Millisecond)); got != 32*time.Millisecond {
		t.Errorf("due-time latency %v, want 32ms", got)
	}
}

func TestWriteSequenceCyclesVersions(t *testing.T) {
	ops := writeSequence(9, 2*churnCycle)
	if len(ops) != 2*churnCycle {
		t.Fatalf("%d ops", len(ops))
	}
	// Key 3 over two cycles: insert v1, overwrite →v2, →v3, delete,
	// insert v4, …
	var kinds []string
	var versions []int
	for _, o := range ops {
		if o.key == 3 {
			kinds = append(kinds, o.kind)
			versions = append(versions, o.version)
		}
	}
	if strings.Join(kinds, " ") != "insert overwrite overwrite delete insert overwrite overwrite delete" {
		t.Errorf("kinds %v", kinds)
	}
	want := []int{1, 2, 3, 0, 4, 5, 6, 0}
	for i := range want {
		if versions[i] != want[i] {
			t.Fatalf("versions %v, want %v", versions, want)
		}
	}
	ow := ops[churnKeys+3] // key 3's first overwrite
	del, ins, ok := strings.Cut(ow.body, "---\n")
	if !ok || ow.method != "PUT" || del != versionDoc(9, 3, 1) || ins != versionDoc(9, 3, 2) {
		t.Errorf("overwrite body:\n%s", ow.body)
	}
	if n := strings.Count(ins, "\n"); n != versionTriples {
		t.Errorf("a version has %d triples, want %d", n, versionTriples)
	}
	if versionAfter(ops, 3, churnKeys) != 1 || versionAfter(ops, 3, churnKeys+4) != 2 || versionAfter(ops, 3, 0) != 0 {
		t.Error("versionAfter does not follow the sequence")
	}
}

func versionRows(seed int64, key, version int) [][]string {
	var rows [][]string
	for j := 0; j < versionTriples/2; j++ {
		rows = append(rows, []string{
			strings.Trim(productIRI(seed, key, version, j), "<>"),
			strings.Trim(producerIRI(seed, key, version), "<>"),
		})
	}
	return rows
}

func TestReadVersionDetectsTornReads(t *testing.T) {
	if v, err := readVersion(9, 3, versionRows(9, 3, 7)); err != nil || v != 7 {
		t.Errorf("complete version: %d, %v", v, err)
	}
	if v, err := readVersion(9, 3, nil); err != nil || v != 0 {
		t.Errorf("no rows: %d, %v", v, err)
	}
	if _, err := readVersion(9, 3, versionRows(9, 3, 7)[:4]); err == nil {
		t.Error("four of five rows accepted as a version")
	}
	mixed := append(versionRows(9, 3, 7)[:3], versionRows(9, 3, 8)[3:]...)
	if _, err := readVersion(9, 3, mixed); err == nil {
		t.Error("rows of two versions accepted as one")
	}
	if _, err := readVersion(9, 3, versionRows(9, 4, 7)); err == nil {
		t.Error("another key's rows accepted")
	}
}

func TestVersionAllowedWindow(t *testing.T) {
	ops := writeSequence(9, churnCycle)
	k := 3
	// All of round 0 acknowledged before the read, nothing of round 1
	// started: only version 1.
	if err := versionAllowed(ops, k, 1, churnKeys, churnKeys); err != nil {
		t.Error(err)
	}
	if err := versionAllowed(ops, k, 0, churnKeys, churnKeys); err == nil {
		t.Error("an acknowledged insert may not be invisible")
	}
	// Key 3's overwrite had started but was not acknowledged: 1 or 2.
	for _, v := range []int{1, 2} {
		if err := versionAllowed(ops, k, v, churnKeys, churnKeys+k+1); err != nil {
			t.Error(err)
		}
	}
	if err := versionAllowed(ops, k, 3, churnKeys, churnKeys+k+1); err == nil {
		t.Error("a version whose write has not started may not be visible")
	}
	// After the delete was acknowledged: absent only.
	if err := versionAllowed(ops, k, 0, churnCycle, churnCycle); err != nil {
		t.Error(err)
	}
	if err := versionAllowed(ops, k, 3, churnCycle, churnCycle); err == nil {
		t.Error("a deleted version may not be visible")
	}
}
