//go:build !race

package cluster

const raceOn = false
