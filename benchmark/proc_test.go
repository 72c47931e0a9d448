package main

import (
	"slices"
	"testing"
)

func TestListenAddr(t *testing.T) {
	for _, c := range []struct {
		line, want string
		ok         bool
	}{
		{"serving on 127.0.0.1:43127 (workers=8 queue=128 timeout=30s cache=256)", "127.0.0.1:43127", true},
		{"site listening on 127.0.0.1:7402 (serving sites 0,1)", "127.0.0.1:7402", true},
		{"serving on [::]:8090 (workers=8)", "[::]:8090", true},
		{"loaded 88664 triples", "", false},
		{"serving on", "", false},
		{"received terminated, draining (timeout 10s)", "", false},
	} {
		got, ok := listenAddr(c.line)
		if got != c.want || ok != c.ok {
			t.Errorf("listenAddr(%q) = %q, %v; want %q, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}

const statusText = `Name:	rdffrag
Umask:	0022
State:	S (sleeping)
VmPeak:	 1893932 kB
VmSize:	 1893932 kB
VmHWM:	  159384 kB
VmRSS:	  141200 kB
Threads:	9
`

func TestStatusKB(t *testing.T) {
	if kb, err := statusKB(statusText, "VmHWM"); err != nil || kb != 159384 {
		t.Errorf("VmHWM = %d, %v", kb, err)
	}
	if kb, err := statusKB(statusText, "VmRSS"); err != nil || kb != 141200 {
		t.Errorf("VmRSS = %d, %v", kb, err)
	}
	if _, err := statusKB(statusText, "VmSwap"); err == nil {
		t.Error("a missing field must be an error, not zero")
	}
	if _, err := statusKB(statusText, "Threads"); err == nil {
		t.Error("a field without a kB unit must be an error")
	}
}

func TestStatUsage(t *testing.T) {
	// The command name holds spaces and a parenthesis; minflt=900,
	// majflt=7, utime=1234, stime=56.
	stat := "4242 (rdf frag) x) S 1 4242 4242 0 -1 4194560 900 0 7 0 1234 56 0 0 20 0 9 0 100 200 300"
	if ticks, faults, err := statUsage(stat); err != nil || ticks != 1290 || faults != 907 {
		t.Errorf("ticks = %d, faults = %d, %v; want 1290, 907", ticks, faults, err)
	}
	if _, _, err := statUsage("4242 (x) S 1 2"); err == nil {
		t.Error("a short stat line must be an error")
	}
	if _, _, err := statUsage("garbage"); err == nil {
		t.Error("a stat line without a command must be an error")
	}
}

const heapTrailer = `heap profile: 1: 16 [2: 32] @ heap/1048576
1: 16 [2: 32] @ 0x1 0x2

# runtime.MemStats
# Alloc = 1048576
# TotalAlloc = 987654321
# Sys = 20000000
# Mallocs = 4000
# Frees = 3000
# PauseNs = [100 200 300 400 0 0 0 0]
# PauseEnd = [1 2 3 4 0 0 0 0]
# NumGC = 4
# NumForcedGC = 0
# GCCPUFraction = 0.01
`

func TestParseMemStats(t *testing.T) {
	m, err := parseMemStats(heapTrailer)
	if err != nil {
		t.Fatal(err)
	}
	if m.totalAlloc != 987654321 || m.mallocs != 4000 || m.numGC != 4 {
		t.Errorf("parsed %+v", m)
	}
	if !slices.Equal(m.pauseNs, []uint64{100, 200, 300, 400, 0, 0, 0, 0}) {
		t.Errorf("pauses %v", m.pauseNs)
	}
	if _, err := parseMemStats("heap profile: 0: 0\n"); err == nil {
		t.Error("text without the MemStats trailer must be an error")
	}
}

func TestGCPauseWindow(t *testing.T) {
	before := memStats{numGC: 1}
	after := memStats{numGC: 4, pauseNs: []uint64{100, 200, 300, 400, 0, 0, 0, 0}}
	if got := gcPauseNs(before, after); got != 900 { // collections 2, 3, 4
		t.Errorf("pause sum = %d, want 900", got)
	}
	// The buffer wrapped: 10 collections in a ring of 4; only the last 4
	// pauses are known.
	after = memStats{numGC: 10, pauseNs: []uint64{9, 10, 7, 8}} // index (gc-1)%4
	if got := gcPauseNs(memStats{numGC: 2}, after); got != 34 {
		t.Errorf("wrapped pause sum = %d, want 34", got)
	}
}

func TestChildEnvStripsRuntimeKnobs(t *testing.T) {
	got := childEnv([]string{"PATH=/bin", "GOGC=off", "GOMAXPROCS=1", "GODEBUG=x=1", "GOMEMLIMIT=1GiB", "GOGCX=keep", "HOME=/root"})
	if !slices.Equal(got, []string{"PATH=/bin", "GOGCX=keep", "HOME=/root"}) {
		t.Errorf("child environment %v", got)
	}
}
