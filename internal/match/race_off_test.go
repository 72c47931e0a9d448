//go:build !race

package match

const raceOn = false
