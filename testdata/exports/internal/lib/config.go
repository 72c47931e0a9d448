package lib

import "sync/atomic"

// Config has one field for each way cmd/app writes a field, and two
// fields no non-test file writes.
type Config struct {
	Assigned  int          // live: assigned
	Keyed     int          // live: set in a keyed literal
	Counted   int          // live: incremented
	Addressed int          // live: its address is taken
	Hits      atomic.Int64 // live: a pointer method is called on it
	Knob      int          // dead: only a test sets it
	Unset     int          // dead: only read
	Tuned     int          // dead too, and allowlisted as a test hook
}

// Pair is filled by unkeyed literals alone.
type Pair struct {
	Left, Right int // live: set in an unkeyed literal
}

// Sum reads every field of c.
func Sum(c *Config) int {
	p := Pair{c.Assigned + c.Keyed, c.Counted + c.Addressed}
	return p.Left + p.Right + int(c.Hits.Load()) + c.Knob + c.Unset + c.Tuned
}
