package main

import (
	"fmt"
	"testing"
	"time"

	"mether"
	"mether/internal/workload"
)

// TestWorkloadsMatchWorkloadPackage pins each hand-driven workload to
// the internal/workload function whose call sequence it reproduces: at
// a reduced size and the same config, both must report exactly the same
// virtual counters. The configs set the knobs configFor sets, including
// a nonzero seed nudge.
func TestWorkloadsMatchWorkloadPackage(t *testing.T) {
	const cap = 10 * time.Minute
	barrier := workload.BarrierConfig{Hosts: 8, Phases: 3, Work: 2 * time.Millisecond,
		HysteresisPurge: 16 * 8, CheckEvery: 10*time.Microsecond + 3, Seed: cellSeed, Cap: cap}
	hotspot := workload.HotspotConfig{Hosts: 32, Iters: 3, IncCost: 50*time.Microsecond + 5,
		MinResidency: 16 * time.Millisecond, Trunks: 4, OwnerTrunk: 1, Seed: cellSeed, Cap: cap}
	stationary := workload.StationaryConfig{Hosts: 16, Iters: 8, SampleEvery: 4, IncCost: 50*time.Microsecond + 3,
		KernelServer: true, Medium: mether.MediumFabric, StaggerStart: 3, Seed: cellSeed, Cap: cap}

	cases := []struct {
		name string
		cfg  any
		run  func() (workload.ClusterStats, uint64, bool, error)
	}{
		{"barrier", barrier, func() (workload.ClusterStats, uint64, bool, error) {
			r, err := workload.RunBarrier(barrier)
			return r.ClusterStats, r.LatCount, r.DNF, err
		}},
		{"hotspot", hotspot, func() (workload.ClusterStats, uint64, bool, error) {
			r, err := workload.RunHotspot(hotspot)
			return r.ClusterStats, r.Updates, r.DNF, err
		}},
		{"stationary", stationary, func() (workload.ClusterStats, uint64, bool, error) {
			r, err := workload.RunStationary(stationary)
			return r.ClusterStats, r.Updates + r.Samples, r.DNF, err
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, wantOps, dnf, err := c.run()
			if err != nil || dnf {
				t.Fatalf("workload package run: err %v, DNF %v", err, dnf)
			}
			sp := specFor(c.cfg)
			r, err := runOnce(sp, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || len(r.problems) != 0 {
				t.Fatalf("benchmark run failed %d ops: %v", r.failed, r.problems)
			}
			v := r.v
			got := counters{v.makespan, v.user, v.sys, v.server, v.ctxSwitches, v.net.WireBytes,
				v.net.Frames, v.events, v.mem, v.net.RingHighWater, v.net.FanoutFrames, v.bridge.Forwarded, v.core.staleDrops}
			exp := counters{want.Wall, want.UserCPU, want.SysCPU, want.ServerCPU, want.CtxSwitches, want.WireBytes,
				want.Packets, want.Events, want.MemBytes, want.RingHighWater, want.FanoutFrames, want.BridgeForwarded, want.StaleDrops}
			if got.events == 0 || got.wireBytes == 0 {
				t.Fatalf("empty run: %+v", got)
			}
			if got != exp {
				t.Errorf("counters differ\n benchmark: %+v\n  workload: %+v", got, exp)
			}
			if uint64(v.ops) != wantOps || v.ops != sp.ops {
				t.Errorf("ops: benchmark %d (spec %d), workload %d", v.ops, sp.ops, wantOps)
			}
		})
	}
}

// counters are the virtual counters the equivalence test compares.
type counters struct {
	wall, user, sys, server                     time.Duration
	ctxSwitches, wireBytes, frames, events, mem uint64
	ringHighWater                               int
	fanout, forwarded, staleDrops               uint64
}

// TestConfigForSeeds checks that every benchmark workload accepts any
// seed and that the seed changes the input.
func TestConfigForSeeds(t *testing.T) {
	for _, name := range workloads {
		a, err := configFor(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := configFor(name, -2)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) == fmt.Sprint(b) {
			t.Errorf("%s: seeds 1 and -2 give the same config", name)
		}
	}
	if _, err := configFor("nope", 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestCPUBucket checks the profile classification on representative
// stacks, innermost frame first.
func TestCPUBucket(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.lock2", "runtime.chanrecv", "runtime.chanrecv1", "mether/internal/sim.(*Proc).park"}, "go-sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "mether/internal/core.(*Driver).serve"}, "go-alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "go-gc"},
		{[]string{"runtime.memmove", "mether/internal/ethernet.(*Bus).Send", "mether/internal/core.(*Driver).send"}, "ethernet"},
		{[]string{"sort.Slice", "mether/internal/sim.(*Kernel).RunUntil"}, "sim"},
		{[]string{"mether/internal/vm.(*Frame).Copy", "mether/internal/core.(*Driver).install"}, "other"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "go-sched"},
	}
	for _, c := range cases {
		if got := cpuBucket(c.frames); got != c.want {
			t.Errorf("cpuBucket(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestProfileDecode profiles a busy loop over two intervals and checks
// that go tool pprof's merged stacks land in the buckets.
func TestProfileDecode(t *testing.T) {
	p := newCPUProfile(t.TempDir())
	x := 0
	for i := 0; i < 2; i++ {
		p.start()
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			x++
		}
		p.stop()
	}
	shares, err := p.shares()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if len(p.files) != 2 || sum < 0.999 || sum > 1.001 {
		t.Errorf("shares %v sum to %v over %d profiles (loop ran %d times)", shares, sum, len(p.files), x)
	}
}
