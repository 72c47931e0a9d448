//go:build race

package transport

// raceOn reports that the tests run under the race detector, whose
// sync.Pool drops pooled buffers at random: allocation guards skip.
const raceOn = true
