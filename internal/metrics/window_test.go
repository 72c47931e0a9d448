package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestWindowNearestRank(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 10; i++ {
		w.Observe(time.Duration(11-i) * time.Millisecond) // 10ms down to 1ms
	}
	// Sorted 1..10ms: index min(int(p·10), 9).
	got := w.Percentiles(0, 0.5, 0.95, 0.99, 1)
	want := []time.Duration{1, 6, 10, 10, 10}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("percentile #%d = %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
	// At n=150 the nearest rank is index int(0.99·150) = 148; the rank
	// site clients once used, (n·99+99)/100 = 149, read one sample higher.
	w = NewWindow(150)
	for i := 1; i <= 150; i++ {
		w.Observe(time.Duration(i))
	}
	if got := w.Percentiles(0.99)[0]; got != 149 {
		t.Errorf("p99 of 1..150 = %v, want 149", got)
	}
}

func TestWindowKeepsNewest(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Observe(time.Duration(i))
	}
	// Only 7, 8, 9, 10 remain.
	got := w.Percentiles(0, 0.5, 1)
	if got[0] != 7 || got[1] != 9 || got[2] != 10 {
		t.Errorf("percentiles after overwrite = %v, want [7 9 10]", got)
	}
}

func TestWindowEmptyIsZero(t *testing.T) {
	got := NewWindow(8).Percentiles(0.5, 0.99)
	if len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("empty window percentiles = %v, want [0 0]", got)
	}
}

func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Observe(time.Duration(i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if p := w.Percentiles(0.5, 0.99); p[0] > p[1] {
					t.Errorf("p50 %v above p99 %v", p[0], p[1])
				}
			}
		}()
	}
	wg.Wait()
	if got := w.Percentiles(1)[0]; got != 999 {
		t.Errorf("max after concurrent observes = %v, want 999", got)
	}
}
