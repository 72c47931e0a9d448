// Command app is the fixture module's production caller.
package main

import (
	"fmt"

	"exportsfixture/internal/lib"
)

func main() {
	var r lib.Runner = lib.Thing{}
	fmt.Println(lib.Used(), r.Run(), r)

	c := &lib.Config{Keyed: 1}
	c.Assigned = 2
	c.Counted++
	fmt.Sscan("4", &c.Addressed)
	c.Hits.Add(5)
	fmt.Println(lib.Sum(c))
}
