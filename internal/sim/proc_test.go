package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestProcPanicSurfacesFromRunUntil checks that a panic inside a
// process unwinds out of RunUntil on the caller's goroutine with its
// value intact, and that the kernel can still be shut down afterwards.
func TestProcPanicSurfacesFromRunUntil(t *testing.T) {
	type boom struct{ n int }
	before := runtime.NumGoroutine()
	k := New(1)
	k.Spawn("bystander", func(p *Proc) {
		for {
			p.Park("forever")
		}
	})
	bad := k.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(boom{7})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if b, ok := got.(boom); !ok || b.n != 7 {
		t.Fatalf("RunUntil panicked with %#v, want boom{7}", got)
	}
	if !bad.Dead() {
		t.Error("panicking proc not marked dead")
	}
	k.Shutdown()
	if after := settledGoroutines(before); after != before {
		t.Errorf("goroutines: %d after Shutdown, %d before New", after, before)
	}
}

// TestShutdownReleasesEveryCoroutine checks that Shutdown ends procs in
// every state — parked, sleeping, never started and already finished —
// and leaves no goroutine of the kernel behind.
func TestShutdownReleasesEveryCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New(1)
	unwound := 0
	k.Spawn("parked", func(p *Proc) {
		defer func() { unwound++ }()
		for {
			p.Park("forever")
		}
	})
	k.Spawn("sleeping", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Hour)
		t.Error("sleeping proc woke")
	})
	k.Spawn("finished", func(p *Proc) { p.Sleep(time.Millisecond) })
	k.RunUntil(time.Second)
	k.Spawn("never-started", func(p *Proc) { t.Error("never-started proc ran") })
	k.Shutdown()
	if unwound != 2 {
		t.Errorf("%d blocked procs ran their defers at Shutdown, want 2", unwound)
	}
	for _, p := range k.procs {
		if !p.Dead() {
			t.Errorf("%v not dead after Shutdown", p)
		}
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("goroutines: %d after Shutdown, %d before New", after, before)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it reads want, or
// after a second. A coroutine's goroutine is gone when stop returns;
// race builds run procs on plain goroutines (see pull_race.go), which
// finish exiting just after they hand control back.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n != want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}
