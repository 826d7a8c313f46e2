package main

import (
	"fmt"
	"math/rand"
	"time"

	"mether"
	"mether/internal/core"
	"mether/internal/vm"
	"mether/internal/workload"
)

// Op kinds recorded in the op spans.
const (
	opBarrierWait = "barrier-wait"
	opUpdate      = "update"
	opSample      = "sample"
)

// cellSeed is the world seed of every workload: the cluster grid's
// default seed, so each workload is exactly its grid cell apart from the
// sub-microsecond knob the benchmark seed moves (see configFor).
const cellSeed = 1

// spec is one workload at one benchmark seed: how many ops a correct
// world completes, and how to build a world of it.
type spec struct {
	hosts int
	ops   int
	// build runs NewWorld through the last Spawn. Every call returns a
	// fresh, independent world.
	build func(tr *tracer) (*instance, error)
}

// instance is one built world plus what its client procs record while
// it runs. Procs run one at a time under the simulation kernel's
// handoff discipline, so they share these fields without locks.
type instance struct {
	w      *mether.World
	cap    time.Duration
	rec    *recorder
	done   []bool
	errs   []error
	finish time.Duration // latest client finish, virtual
	// verify spawns the post-run read-back procs and returns how many
	// values they found wrong. It runs after the counters are harvested,
	// so it moves no reported number.
	verify func() int
}

func newInstance(w *mether.World, cap time.Duration, clients, ops int, tr *tracer) *instance {
	return &instance{
		w: w, cap: cap,
		rec:  newRecorder(ops, tr),
		done: make([]bool, clients),
		errs: make([]error, clients),
	}
}

// finished marks client i done at the current virtual time.
func (in *instance) finished(env *mether.Env, i int) {
	in.done[i] = true
	if t := env.Now(); t > in.finish {
		in.finish = t
	}
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"barrier-poll", "hotspot-bridged", "stationary-fabric-kernel"}

// configFor maps a workload name and benchmark seed to the workload
// package's config for that cell. The seed moves exactly one timing
// knob by a few nanoseconds. Every seed then runs a genuinely different
// input, yet stays in the same contention regime: the same event count,
// with virtual times that differ in their last digits. Larger moves
// switch regimes (a hotspot IncCost of 48 µs instead of 50 µs runs 16.6M
// events instead of 9.1M), which would make run-to-run spread measure
// the input instead of the program.
func configFor(name string, seed int64) (any, error) {
	nudge := func(n int64) time.Duration { return time.Duration(((seed % n) + n) % n) }
	switch name {
	case "barrier-poll":
		// cluster/barrier/h64 (cold start, 16×h purge hysteresis) with
		// 16 phases instead of 2: 1024 barrier waits, so p99 has ten
		// samples beyond it. The poll interval is applied per poll
		// iteration, so its nudge stays under 8 ns.
		return workload.BarrierConfig{
			Hosts: 64, Phases: 16, Work: 2 * time.Millisecond,
			HysteresisPurge: 16 * 64, CheckEvery: 10*time.Microsecond + nudge(8),
			Seed: cellSeed, Cap: 10 * time.Minute,
		}, nil
	case "hotspot-bridged":
		// cluster/hotspot/h256/t2-star on a 4-trunk star: 4 updates per
		// host, the h-scaled 128 ms residency, hot page homed on trunk 1.
		// On the grid's own 2-trunk star the read-back oracle finds lost
		// updates (README.md, "Known defect").
		return workload.HotspotConfig{
			Hosts: 256, Iters: 4, IncCost: 50*time.Microsecond + nudge(16),
			MinResidency: 256 * 500 * time.Microsecond,
			Trunks:       4, OwnerTrunk: 1,
			Seed: cellSeed, Cap: 10 * time.Minute,
		}, nil
	case "stationary-fabric-kernel":
		// cluster/stationary/h256 moved onto the fabric with the
		// in-kernel server. The per-update compute alone moves only the
		// CPU totals, so the seed nudges the start stagger by the same
		// amount (1..7 ns per host index; 15 ns already switches regime).
		d := 1 + nudge(7)
		return workload.StationaryConfig{
			Hosts: 256, Iters: 8, SampleEvery: 4, IncCost: 50*time.Microsecond + d,
			KernelServer: true, Medium: mether.MediumFabric, StaggerStart: d,
			Seed: cellSeed, Cap: 10 * time.Minute,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// specFor builds the spec of a workload config returned by configFor.
func specFor(cfg any) spec {
	switch c := cfg.(type) {
	case workload.BarrierConfig:
		return barrierSpec(c)
	case workload.HotspotConfig:
		return hotspotSpec(c)
	case workload.StationaryConfig:
		return stationarySpec(c)
	}
	panic(fmt.Sprintf("perfbench: no spec for %T", cfg))
}

// The three specs below reproduce workload.RunBarrier, RunHotspot and
// RunStationary call for call, for the knobs their cells set: world
// config, segment layout, and each client's sequence of Mether calls.
// Knobs those cells leave at zero (loss, redundancy, retry, warm start,
// faults, windowed attach) are not modelled. The equivalence test pins each
// spec to its workload function.

func barrierSpec(cfg workload.BarrierConfig) spec {
	return spec{hosts: cfg.Hosts, ops: cfg.Hosts * cfg.Phases, build: func(tr *tracer) (*instance, error) {
		pages := cfg.Hosts
		if pages < 8 {
			pages = 8
		}
		sp := tr.begin("mether.NewWorld")
		w := mether.NewWorld(mether.Config{Hosts: cfg.Hosts, Pages: pages, Seed: cfg.Seed})
		tr.end(sp)
		owners := make([]int, cfg.Hosts)
		for i := range owners {
			owners[i] = i
		}
		sp = tr.begin("mether.CreateSegment")
		seg, err := w.CreateSegmentOwners("barrier", owners)
		tr.end(sp)
		if err != nil {
			w.Shutdown()
			return nil, err
		}
		capRW := seg.CapRW()
		// The same pre-drawn per-host, per-phase work as RunBarrier.
		rng := rand.New(rand.NewSource(cfg.Seed))
		work := make([][]time.Duration, cfg.Hosts)
		for i := range work {
			work[i] = make([]time.Duration, cfg.Phases)
			for p := range work[i] {
				half := int64(cfg.Work) / 2
				work[i][p] = cfg.Work/2 + time.Duration(rng.Int63n(2*half+1))
			}
		}
		in := newInstance(w, cfg.Cap, cfg.Hosts, cfg.Hosts*cfg.Phases, tr)
		for i := 0; i < cfg.Hosts; i++ {
			i := i
			sp = tr.begin("mether.Spawn")
			w.Spawn(i, fmt.Sprintf("bsp%d", i), func(env *mether.Env) {
				in.errs[i] = barrierClient(env, capRW, cfg, i, work[i], in.rec)
				if in.errs[i] == nil {
					in.finished(env, i)
				}
			})
			tr.end(sp)
		}
		// Read-back: every host's own page holds its last phase.
		in.verify = func() int {
			return readBack(w, capRW, ownWords(cfg.Hosts, uint32(cfg.Phases)))
		}
		return in, nil
	}}
}

// barrierClient is workload.barrierClient plus op stamps and the
// barrier oracle: a released waiter saw every peer at its phase, and no
// peer more than one phase ahead (no one passes a barrier before
// everyone has arrived at it).
func barrierClient(env *mether.Env, cap mether.Capability, cfg workload.BarrierConfig, id int, work []time.Duration, rec *recorder) error {
	own, err := env.Attach(cap, mether.RW)
	if err != nil {
		return err
	}
	peers, err := env.Attach(cap.ReadOnly(), mether.RO)
	if err != nil {
		return err
	}
	ownAddr := own.Addr(id, 0).Short()
	for phase := 0; phase < cfg.Phases; phase++ {
		env.Compute(work[phase])
		want := uint32(phase + 1)
		if err := own.Store32(ownAddr, want); err != nil {
			return err
		}
		if err := own.Purge(ownAddr); err != nil {
			return err
		}
		arrived := env.Now()
		ok := true
		for j := 0; j < cfg.Hosts; j++ {
			if j == id {
				continue
			}
			pa := peers.Addr(j, 0).Short()
			stale := 0
			for {
				env.Compute(cfg.CheckEvery)
				v, err := peers.Load32(pa)
				if err != nil {
					return err
				}
				if v >= want {
					ok = ok && v <= want+1
					break
				}
				stale++
				if stale >= cfg.HysteresisPurge {
					stale = 0
					if err := peers.Purge(pa); err != nil {
						return err
					}
				}
			}
		}
		rec.op(id, opBarrierWait, arrived, env.Now(), ok)
	}
	return nil
}

func hotspotSpec(cfg workload.HotspotConfig) spec {
	return spec{hosts: cfg.Hosts, ops: cfg.Hosts * cfg.Iters, build: func(tr *tracer) (*instance, error) {
		wcfg := mether.Config{Hosts: cfg.Hosts, Pages: 8, Seed: cfg.Seed, Trunks: cfg.Trunks}
		if cfg.MinResidency > 0 {
			wcfg.Core = core.DefaultConfig(8)
			wcfg.Core.MinResidency = cfg.MinResidency
		}
		sp := tr.begin("mether.NewWorld")
		w := mether.NewWorld(wcfg)
		tr.end(sp)
		sp = tr.begin("mether.CreateSegment")
		seg, err := w.CreateSegmentOnTrunk("hotspot", 1, cfg.OwnerTrunk)
		tr.end(sp)
		if err != nil {
			w.Shutdown()
			return nil, err
		}
		capRW := seg.CapRW()
		in := newInstance(w, cfg.Cap, cfg.Hosts, cfg.Hosts*cfg.Iters, tr)
		for i := 0; i < cfg.Hosts; i++ {
			i := i
			sp = tr.begin("mether.Spawn")
			w.Spawn(i, fmt.Sprintf("hot%d", i), func(env *mether.Env) {
				m, err := env.Attach(capRW, mether.RW)
				if err != nil {
					in.errs[i] = err
					return
				}
				a := m.Addr(0, 4*i)
				for n := 0; n < cfg.Iters; n++ {
					env.Compute(cfg.IncCost)
					// An update spans its Load32→Store32, not the compute
					// before it.
					start := env.Now()
					v, err := m.Load32(a)
					if err != nil {
						in.errs[i] = err
						return
					}
					if err := m.Store32(a, v+1); err != nil {
						in.errs[i] = err
						return
					}
					// Oracle: the writer reads back exactly its own last
					// written value; anything else is a lost update.
					in.rec.op(i, opUpdate, start, env.Now(), v == uint32(n))
				}
				in.finished(env, i)
			})
			tr.end(sp)
		}
		// Read-back on whichever host holds the consistent copy: every
		// writer's word holds its final count.
		in.verify = func() int {
			holder := -1
			for h := 0; h < w.NumHosts(); h++ {
				// The hot segment is the world's first, so its page is
				// page 0 of the Mether page space.
				if w.Driver(h).Snapshot(vm.PageID(0)).Owner {
					holder = h
				}
			}
			if holder < 0 {
				return cfg.Hosts
			}
			words := make([]word, cfg.Hosts)
			for i := range words {
				words[i] = word{host: holder, off: 4 * i, want: uint32(cfg.Iters)}
			}
			return readBack(w, capRW, words)
		}
		return in, nil
	}}
}

func stationarySpec(cfg workload.StationaryConfig) spec {
	ops := cfg.Hosts * cfg.Iters
	if cfg.SampleEvery > 0 {
		ops += cfg.Hosts * (cfg.Iters / cfg.SampleEvery)
	}
	return spec{hosts: cfg.Hosts, ops: ops, build: func(tr *tracer) (*instance, error) {
		pages := cfg.Hosts
		if pages < 8 {
			pages = 8
		}
		wcfg := mether.Config{Hosts: cfg.Hosts, Pages: pages, Seed: cfg.Seed,
			Medium: mether.MediumConfig{Kind: cfg.Medium}}
		if cfg.KernelServer {
			wcfg.Core = core.DefaultConfig(pages)
			wcfg.Core.KernelServer = true
		}
		sp := tr.begin("mether.NewWorld")
		w := mether.NewWorld(wcfg)
		tr.end(sp)
		owners := make([]int, cfg.Hosts)
		for i := range owners {
			owners[i] = i
		}
		sp = tr.begin("mether.CreateSegment")
		seg, err := w.CreateSegmentOwners("stationary", owners)
		tr.end(sp)
		if err != nil {
			w.Shutdown()
			return nil, err
		}
		capRW := seg.CapRW()
		in := newInstance(w, cfg.Cap, cfg.Hosts, ops, tr)
		for i := 0; i < cfg.Hosts; i++ {
			i := i
			sp = tr.begin("mether.Spawn")
			w.Spawn(i, fmt.Sprintf("stat%d", i), func(env *mether.Env) {
				in.errs[i] = stationaryClient(env, capRW, cfg, i, in.rec)
				if in.errs[i] == nil {
					in.finished(env, i)
				}
			})
			tr.end(sp)
		}
		// Read-back: every host's own counter holds the iteration count.
		in.verify = func() int {
			return readBack(w, capRW, ownWords(cfg.Hosts, uint32(cfg.Iters)))
		}
		return in, nil
	}}
}

// stationaryClient is RunStationary's full-attach client plus op stamps
// and its oracle: each update reads back the host's own last count, and
// the sampled neighbour counter never goes backwards or past the end.
func stationaryClient(env *mether.Env, capRW mether.Capability, cfg workload.StationaryConfig, i int, rec *recorder) error {
	if cfg.StaggerStart > 0 {
		env.SleepFor(time.Duration(i) * cfg.StaggerStart)
	}
	own, err := env.Attach(capRW, mether.RW)
	if err != nil {
		return err
	}
	peers, err := env.Attach(capRW.ReadOnly(), mether.RO)
	if err != nil {
		return err
	}
	ownAddr := own.Addr(i, 0).Short()
	peerAddr := peers.Addr((i+1)%cfg.Hosts, 0).Short()
	var lastSample uint32
	for n := 0; n < cfg.Iters; n++ {
		env.Compute(cfg.IncCost)
		start := env.Now()
		v, err := own.Load32(ownAddr)
		if err != nil {
			return err
		}
		if err := own.Store32(ownAddr, v+1); err != nil {
			return err
		}
		if err := own.Purge(ownAddr); err != nil {
			return err
		}
		rec.op(i, opUpdate, start, env.Now(), v == uint32(n))
		if cfg.SampleEvery > 0 && n%cfg.SampleEvery == cfg.SampleEvery-1 {
			start := env.Now()
			if err := peers.Purge(peerAddr); err != nil {
				return err
			}
			s, err := peers.Load32(peerAddr)
			if err != nil {
				return err
			}
			rec.op(i, opSample, start, env.Now(), s >= lastSample && s <= uint32(cfg.Iters))
			lastSample = s
		}
	}
	return nil
}

// word is one value a post-run verifier reads back: on host, the word
// at byte off of segment page, through the short view when short.
type word struct {
	host, page, off int
	short           bool
	want            uint32
}

// readBack spawns one verifier per word and runs the world until they
// finish. Each verifier maps only the word's page, on a host that holds
// the page, so the read is local. It returns how many words were wrong
// or unreadable.
func readBack(w *mether.World, capRW mether.Capability, words []word) int {
	bad := len(words)
	for i, wd := range words {
		wd := wd
		w.Spawn(wd.host, fmt.Sprintf("verify%d", i), func(env *mether.Env) {
			m, err := env.AttachPages(capRW, mether.RW, wd.page)
			if err != nil {
				return
			}
			a := m.Addr(wd.page, wd.off)
			if wd.short {
				a = a.Short()
			}
			if got, err := m.Load32(a); err == nil && got == wd.want {
				bad--
			}
		})
	}
	w.RunUntil(w.Now() + time.Minute)
	return bad
}

// ownWords is the read-back of workloads where host i owns page i and
// keeps its counter in that page's first short word.
func ownWords(hosts int, want uint32) []word {
	out := make([]word, hosts)
	for i := range out {
		out[i] = word{host: i, page: i, short: true, want: want}
	}
	return out
}
