//go:build race

package rdffrag

// raceOn reports that the tests run under the race detector.
const raceOn = true
