// Package lib holds one export of each class the exports checker tells
// apart.
package lib

// Used is live: cmd/app calls it.
func Used() int { return Private() + 1 }

// Private is package-private: only Used calls it.
func Private() int { return 1 }

// Dead is dead: only a test calls it, and its call to itself is no
// caller.
func Dead(n int) int {
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

// Hook is dead too, and allowlisted as a test hook.
func Hook() {}

// Runner is the module interface cmd/app reaches Thing through.
type Runner interface{ Run() string }

// Thing reaches cmd/app only as a Runner.
type Thing struct{}

// Run is reached only through Runner.
func (Thing) Run() string { return "run" }

// String is reached only through fmt.
func (Thing) String() string { return "thing" }

// Table has a method named like the live function Used.
type Table struct{}

// Used is dead: a call of lib.Used is a call of the function.
func (Table) Used() int { return 3 }
