// Package testonly is imported by tests alone, so tests of other
// packages count as its callers and its fields' writers.
package testonly

// Opts is live: lib's test sets its field.
type Opts struct {
	Level int // live: lib's test sets it
}

// Helper is live: lib's test calls it.
func Helper(o Opts) int { return o.Level }

// Unused is dead: nothing calls it.
func Unused() int { return 0 }
