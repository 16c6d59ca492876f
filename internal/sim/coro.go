//go:build go1.23

package sim

import "iter"

// pull starts body as a stdlib coroutine (runtime coroswitch, no scheduler
// round trip): next runs it until it yields or returns, and stop unwinds it
// while suspended. The constraint keeps go.mod at go 1.22, which predates
// package iter; any go1.23+ toolchain builds this file.
func pull(body iter.Seq[struct{}]) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
