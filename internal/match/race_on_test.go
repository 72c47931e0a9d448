//go:build race

package match

// raceOn reports that the tests run under the race detector, whose
// sync.Pool drops pooled values at random: allocation guards on what the
// reducer pools skip.
const raceOn = true
