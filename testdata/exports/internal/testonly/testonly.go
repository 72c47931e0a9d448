// Package testonly is imported by tests alone, so tests of other
// packages count as its callers.
package testonly

// Helper is live: lib's test calls it.
func Helper() int { return 3 }

// Unused is dead: nothing calls it.
func Unused() int { return 0 }
