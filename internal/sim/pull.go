//go:build go1.23 && !race

package sim

import "iter"

// pull starts a process coroutine: iter.Pull over a body that yields
// nothing but control.
func pull(body iter.Seq[struct{}]) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
