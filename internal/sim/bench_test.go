package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelDispatch measures heap-path event throughput: every
// event is scheduled a nonzero delay ahead, so each one transits the
// (time, seq) priority queue. This is the simulator's base speed limit.
func BenchmarkKernelDispatch(b *testing.B) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(time.Microsecond, "tick", tick)
	k.Run()
}

// BenchmarkKernelDispatchImmediate measures the After(0) fast path:
// same-instant events that (post-refactor) bypass the heap through the
// FIFO run queue — the shape of wakeups, interrupts and work handoffs,
// the dominant event class in protocol-heavy runs.
func BenchmarkKernelDispatchImmediate(b *testing.B) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(0, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(0, "tick", tick)
	k.Run()
}

// BenchmarkKernelDispatchDeep measures dispatch with ~4096 timers
// pending at all times — the cluster-scale shape (per-host retries,
// boosts, sleeps) where a binary heap pays O(log n) sift work per event
// and the timing wheel pays a depth-independent constant.
func BenchmarkKernelDispatchDeep(b *testing.B) {
	const depth = 4096
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n+depth <= b.N {
			k.After(depth*time.Microsecond, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= depth; i++ {
		k.After(time.Duration(i)*time.Microsecond, "tick", tick)
	}
	k.Run()
}

// BenchmarkKernelScheduleCancel measures the schedule-then-cancel churn
// of retry timers: the event never fires but must be queued, cancelled
// (dropping its closure immediately) and reclaimed on pop.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		ev := k.After(time.Millisecond, "retry", func() { panic("cancelled event ran") })
		ev.Cancel()
		if n < b.N {
			k.After(time.Microsecond, "tick", tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(time.Microsecond, "tick", tick)
	k.Run()
}

// BenchmarkProcRoundTrip measures one process sleeping in a loop: each
// op is a park, a timer event and a resume, the process switch every
// Sleep and Park pays.
func BenchmarkProcRoundTrip(b *testing.B) {
	k := New(1)
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSpawn measures a process's whole life cycle in kernels of
// 128 processes: Spawn, first dispatch up to a Park, and Shutdown. One
// op is one process.
func BenchmarkSpawn(b *testing.B) {
	const procs = 128
	b.ReportAllocs()
	for n := 0; n < b.N; n += procs {
		k := New(1)
		for i := n; i < n+procs && i < b.N; i++ {
			k.Spawn("p", func(p *Proc) { p.Park("idle") })
		}
		k.Run()
		k.Shutdown()
	}
}

// TestProcRoundTripAllocs pins the steady-state process switch at zero
// allocations: the wake event comes from the freelist and the resume
// and park are coroutine transfers.
func TestProcRoundTripAllocs(t *testing.T) {
	k := New(1)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	k.RunUntil(time.Millisecond) // warm up the freelist
	allocs := testing.AllocsPerRun(1000, func() {
		k.RunUntil(k.Now() + time.Microsecond)
	})
	k.Shutdown()
	if allocs != 0 {
		t.Errorf("proc round trip allocates %.2f/op, want 0", allocs)
	}
}
