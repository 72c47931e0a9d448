//go:build !race

package match

const poison = false
