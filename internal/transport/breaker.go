package transport

// A per-site circuit breaker. Repeated transport failures open the
// circuit; while open, calls fail fast (no connection attempt, no
// retry budget burned) so a dead site costs queries microseconds
// instead of timeouts. After a cooldown the breaker lets exactly one
// probe through (half-open); the probe's outcome closes the circuit or
// re-opens it.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBreakerOpen is returned (wrapped in cluster.ErrSiteUnavailable by
// the client) when a call is rejected by an open circuit.
var ErrBreakerOpen = errors.New("transport: circuit breaker open")

// BreakerConfig tunes a circuit breaker. The zero value gets defaults:
// 5 consecutive failures to open, 1s cooldown before the first probe.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// circuit.
	Threshold int
	// Cooldown is how long the circuit stays open before allowing a
	// half-open probe.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breakerState(%d)", int(s))
}

// breaker is a three-state circuit breaker, safe for concurrent use.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time // injectable clock for tests

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
	opens    uint64    // cumulative transitions to open
}

// newBreaker builds a breaker from cfg.
func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// allow reports whether a call may proceed. Open circuit: fails fast
// with ErrBreakerOpen until the cooldown elapses, then admits exactly
// one concurrent probe (half-open); further calls keep failing fast
// until the probe reports. The caller must follow every successful
// allow with exactly one success or failure.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return ErrBreakerOpen
		}
		b.state = breakerHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// success reports a completed call: the circuit closes and the failure
// streak resets.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// failure reports a failed call: a half-open probe re-opens the
// circuit immediately; while closed, the streak advances and opens the
// circuit at the threshold.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.trip()
	case breakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.trip()
		}
	}
	// Already open: a late failure report from a call admitted before
	// the trip changes nothing.
}

// cancel reports that an admitted call ended without a verdict on the
// site's health (the caller cancelled, its sink failed, or the request
// was rejected as malformed): the probe slot is released so a future
// call can probe, but the circuit's state and streak are untouched.
func (b *breaker) cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// trip opens the circuit; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.fails = 0
	b.probing = false
	b.opens++
}

// status returns the current state name and the cumulative open count.
func (b *breaker) status() (string, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.opens
}
