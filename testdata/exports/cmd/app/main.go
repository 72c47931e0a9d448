// Command app is the fixture module's production caller.
package main

import (
	"fmt"

	"exportsfixture/internal/lib"
)

func main() {
	var r lib.Runner = lib.Thing{}
	fmt.Println(lib.Used(), r.Run(), r)
}
