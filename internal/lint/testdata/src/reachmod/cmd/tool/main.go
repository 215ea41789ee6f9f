package main

import (
	"fmt"

	"reachmod/lib"
)

func main() {
	fmt.Println(lib.Use(lib.MakeImpl()), lib.Lookup(lib.KC))
}

func unusedHelper() {}
