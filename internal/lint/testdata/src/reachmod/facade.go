// Package reachmod is the reach test's fixture facade: its exported
// declarations are roots, the methods of the types it re-exports are not.
package reachmod

import "reachmod/lib"

type Pub = lib.Pub

func New() *Pub { return lib.NewPub() }
