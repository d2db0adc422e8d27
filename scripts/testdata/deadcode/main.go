// Command deadcodefixture is the module scripts/deadcode.go is checked
// against: every declaration in it has a caller except lib.Unused.
package main

import (
	"fmt"

	"deadcodefixture/lib"
)

func main() {
	lib.Used()
	// Area is reached only through the Shape interface.
	var s lib.Shape = lib.NewSquare(2)
	fmt.Println(s.Area())
}
