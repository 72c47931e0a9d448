//go:build !race

package rdffrag

const raceOn = false
