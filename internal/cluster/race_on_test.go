//go:build race

package cluster

// raceOn reports that the tests run under the race detector, where match
// overwrites every array handed back to its free list.
const raceOn = true
