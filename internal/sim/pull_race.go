//go:build race

package sim

// pull is iter.Pull's contract built from a goroutine and two channels,
// for race builds only. Up to at least Go 1.24 a coroutine goroutine
// that exits never releases its race-detector state (about 5 KB each),
// so a race-enabled test binary that builds thousands of worlds runs
// out of memory; a plain goroutine releases it when it exits. As with
// iter.Pull, a panic in body is re-raised from the next or stop call
// that was waiting for it, and stop makes a pending yield return false.
func pull(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	resume := make(chan bool)
	back := make(chan struct{})
	var done bool
	var panicValue any
	go func() {
		defer func() {
			panicValue = recover()
			done = true
			back <- struct{}{}
		}()
		if <-resume {
			body(func(struct{}) bool {
				back <- struct{}{}
				return <-resume
			})
		}
	}()
	transfer := func(more bool) {
		resume <- more
		<-back
		if done && panicValue != nil {
			panic(panicValue)
		}
	}
	next = func() (struct{}, bool) {
		if !done {
			transfer(true)
		}
		return struct{}{}, !done
	}
	stop = func() {
		if !done {
			transfer(false)
		}
	}
	return next, stop
}
