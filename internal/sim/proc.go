package sim

import (
	"fmt"
	"time"
)

type procState uint8

const (
	procNew procState = iota
	procRunning
	procParked  // blocked in Park, waiting for Wake
	procWaiting // blocked in Sleep, timed resume scheduled
	procDead
)

// Proc is a simulated process: a coroutine whose execution is
// interleaved deterministically by the Kernel. All Proc methods except
// Wake must be called from within the process itself (i.e. from the
// function passed to Spawn). Wake must be called from kernel context —
// an event callback or another running process.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	// wakePending coalesces Wake calls that arrive while the process is
	// not parked; the next Park returns immediately.
	wakePending bool
	parkReason  any
	// next resumes the coroutine until it parks or exits; yield, called
	// from inside it, hands control back and reports false once stop
	// has ended the coroutine.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// runFn is precomputed once so the park/wake hot path schedules
	// events without allocating a closure.
	runFn func()
}

// abortSignal is panicked inside a process when Shutdown stops it,
// unwinding the process function back to the Spawn wrapper.
type abortSignal struct{}

// Spawn creates a process and schedules it to start at the current
// virtual time. fn runs as a coroutine (see pull): it executes only
// while the kernel has resumed it, and control passes back whenever it
// blocks (Sleep, Park) or returns, so fn must use only this package's
// blocking primitives. Spawn runs the coroutine once, up to a yield
// before fn, so iter.Pull's lazily built yield closure is allocated
// here rather than at the first dispatch.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.runFn = func() { k.runProc(p) }
	p.next, p.stop = pull(func(yield func(struct{}) bool) {
		defer func() {
			p.state = procDead
			if r := recover(); r != nil {
				if _, ok := r.(abortSignal); !ok {
					panic(r)
				}
			}
		}()
		p.yield = yield
		if yield(struct{}{}) {
			fn(p)
		}
	})
	p.next()
	k.procs = append(k.procs, p)
	k.After(0, "spawn", p.runFn)
	return p
}

// runProc resumes p until it parks or exits. A panic inside p other
// than Shutdown's abort surfaces here, and so from RunUntil.
func (k *Kernel) runProc(p *Proc) {
	if p.state == procDead {
		return
	}
	p.state = procRunning
	p.next()
}

// Shutdown stops every process that has not exited, unwinding blocked
// and never-started ones so their coroutines end. It must be called
// after Run/RunUntil has returned, never from inside an event or
// process. Worlds that create many kernels (tests, sweeps) should call
// Shutdown to avoid accumulating suspended coroutines.
func (k *Kernel) Shutdown() {
	k.stopped = true
	for _, p := range k.procs {
		p.stop()
	}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// park returns control to the kernel and blocks until resumed. If
// Shutdown stopped the coroutine instead, it unwinds the process.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(abortSignal{})
	}
	p.state = procRunning
}

// Sleep blocks the process for virtual duration d. Wake calls received
// while sleeping are remembered and cause the next Park to return
// immediately, but do not shorten the sleep.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.state = procWaiting
	p.k.After(d, "wake", p.runFn)
	p.park()
}

// Park blocks until another component calls Wake. The reason — any
// value; typically a string or the wait key the caller is blocked on —
// is retained for debugger inspection and formatted only on demand, so
// the hot path never pays for building a diagnostic string. If a Wake
// arrived since the last Park returned, Park consumes it and returns
// immediately.
func (p *Proc) Park(reason any) {
	if p.wakePending {
		p.wakePending = false
		return
	}
	p.parkReason = reason
	p.state = procParked
	p.park()
}

// Wake makes a parked process runnable at the current virtual time. If
// the process is not parked the wake is remembered (coalesced) and the
// next Park returns immediately. Waking a dead process is a no-op.
// Wake must be called from kernel context, never from the woken
// process itself.
func (p *Proc) Wake() {
	switch p.state {
	case procDead:
	case procParked:
		p.state = procWaiting // resume already scheduled below
		p.k.After(0, "wake", p.runFn)
	default:
		p.wakePending = true
	}
}

// Dead reports whether the process function has returned.
func (p *Proc) Dead() bool { return p.state == procDead }

func (p *Proc) String() string {
	return fmt.Sprintf("proc %q", p.name)
}
