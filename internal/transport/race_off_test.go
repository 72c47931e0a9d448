//go:build !race

package transport

const raceOn = false
