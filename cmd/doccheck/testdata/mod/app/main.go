// Command app is the fixture's production caller.
package main

import "fixture/internal/lib"

type hider interface{ Hidden() }

var _ hider = lib.Impl{}

var _ = lib.Idle{}

func main() {
	lib.Used()
	lib.Called{}.Run()
}
