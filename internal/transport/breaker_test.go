package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock drives a breaker's injectable clock deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(cfg BreakerConfig) (*breaker, *fakeClock) {
	b := newBreaker(cfg)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func wantState(t *testing.T, b *breaker, want string) {
	t.Helper()
	if got, _ := b.status(); got != want {
		t.Fatalf("breaker state = %q, want %q", got, want)
	}
}

// The full closed → open → half-open → closed cycle, plus the re-open
// branch when the half-open probe fails.
func TestBreakerLifecycle(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second})

	// Closed: failures below the threshold keep admitting calls.
	for i := 0; i < 2; i++ {
		if err := b.allow(); err != nil {
			t.Fatalf("closed allow #%d: %v", i, err)
		}
		b.failure()
	}
	wantState(t, b, "closed")

	// Third consecutive failure trips the circuit.
	if err := b.allow(); err != nil {
		t.Fatalf("closed allow #3: %v", err)
	}
	b.failure()
	wantState(t, b, "open")
	if _, opens := b.status(); opens != 1 {
		t.Fatalf("opens = %d, want 1", opens)
	}

	// Open: fail fast until the cooldown elapses.
	if err := b.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open allow = %v, want ErrBreakerOpen", err)
	}
	clk.advance(999 * time.Millisecond)
	if err := b.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("allow just before cooldown = %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapsed: exactly one half-open probe gets through.
	clk.advance(time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("half-open probe allow: %v", err)
	}
	wantState(t, b, "half-open")
	if err := b.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe = %v, want ErrBreakerOpen", err)
	}

	// Probe fails → re-open, and the cooldown restarts from now.
	b.failure()
	wantState(t, b, "open")
	if _, opens := b.status(); opens != 2 {
		t.Fatalf("opens = %d, want 2", opens)
	}
	if err := b.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("allow right after re-open = %v, want ErrBreakerOpen", err)
	}

	// Next probe succeeds → closed, streak reset.
	clk.advance(time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe allow: %v", err)
	}
	b.success()
	wantState(t, b, "closed")

	// The reset streak needs a full threshold of new failures to trip.
	for i := 0; i < 2; i++ {
		if err := b.allow(); err != nil {
			t.Fatalf("post-close allow #%d: %v", i, err)
		}
		b.failure()
	}
	wantState(t, b, "closed")
}

// A success while closed resets the consecutive-failure streak: faults
// must be consecutive to open the circuit.
func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second})
	b.allow()
	b.failure()
	b.allow()
	b.success()
	b.allow()
	b.failure()
	wantState(t, b, "closed")
	b.allow()
	b.failure()
	wantState(t, b, "open")
}

// Cancel releases the half-open probe slot without a health verdict:
// the circuit stays half-open and the next call may probe again.
func TestBreakerCancelReleasesProbe(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.allow()
	b.failure()
	wantState(t, b, "open")

	clk.advance(time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("probe allow: %v", err)
	}
	// The probing call was cancelled by its caller — no verdict.
	b.cancel()
	wantState(t, b, "half-open")
	if err := b.allow(); err != nil {
		t.Fatalf("allow after Cancel should admit a new probe: %v", err)
	}
	b.success()
	wantState(t, b, "closed")
}

// Under concurrent load, an open breaker past its cooldown admits
// exactly one probe; everyone else fails fast. Run with -race.
func TestBreakerConcurrentProbes(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Millisecond})
	b.allow()
	b.failure()
	wantState(t, b, "open")
	clk.advance(2 * time.Millisecond)

	const callers = 64
	var wg sync.WaitGroup
	admitted := make(chan struct{}, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.allow() == nil {
				admitted <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(admitted)
	n := 0
	for range admitted {
		n++
	}
	if n != 1 {
		t.Fatalf("admitted %d concurrent probes, want exactly 1", n)
	}
	b.success()
	wantState(t, b, "closed")
}

// Hammer the breaker from many goroutines with mixed verdicts; the test
// is that -race stays quiet and the state stays one of the three names.
func TestBreakerConcurrentHammer(t *testing.T) {
	b := newBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Microsecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if err := b.allow(); err != nil {
					continue
				}
				switch (i + j) % 3 {
				case 0:
					b.success()
				case 1:
					b.failure()
				default:
					b.cancel()
				}
			}
		}()
	}
	wg.Wait()
	switch got, _ := b.status(); got {
	case "closed", "open", "half-open":
	default:
		t.Fatalf("breaker in unknown state %q", got)
	}
}
