package main

import (
	"math"
	"sort"
	"time"

	"mether/internal/ethernet"
	"mether/internal/stats"
)

// virt is everything a world reports in virtual time or as a count. It
// is a deterministic function of the workload config, so every rep of a
// run must produce the same virt; the struct is comparable so that this
// is one ==.
type virt struct {
	ops      int // ops completed (oracle held or not)
	okOps    int // ops completed with their oracle holding
	events   uint64
	makespan time.Duration
	// CPU split as workload.ClusterStats reports it: client user and
	// sys, and the Mether server (metherd user+sys plus in-kernel
	// protocol time, which kernel also reports alone).
	user, sys, server, kernel time.Duration
	ctxSwitches               uint64
	busy                      time.Duration // summed host busy time
	net                       ethernet.Stats
	bridge                    ethernet.BridgeStats
	trunkUtilMax              float64
	core                      coreCounts
	mem                       uint64
	// Exact op-span quantiles (nearest rank), and the same run's
	// log2-bucketed stats.Histogram p99 for comparison.
	latP50, latP99, histP99 time.Duration
}

// coreCounts sums the core.Metrics counters the benchmark reports.
type coreCounts struct {
	demandFaults, requests, retries, holdOffs, deferred uint64
	installs, refreshes, staleDrops                     uint64
}

// harvest reads a finished world's public counters, the same way
// workload.ClusterStats collects them.
func harvest(in *instance) virt {
	w := in.w
	v := virt{ops: len(in.rec.ops), makespan: in.finish}
	for _, d := range in.done {
		if !d {
			// A DNF world reports its cap, as the workload package does.
			v.makespan = w.Now()
		}
	}
	for i := 0; i < w.NumHosts(); i++ {
		v.ctxSwitches += w.ContextSwitches(i)
		h := w.HostMachine(i)
		v.busy += h.BusyTime()
		for _, p := range h.Procs() {
			if p.Name() == "metherd" {
				v.server += p.User() + p.Sys()
			} else {
				v.user += p.User()
				v.sys += p.Sys()
			}
		}
		m := w.Driver(i).Metrics()
		v.kernel += m.KernelTime
		v.core.demandFaults += m.DemandFaults
		v.core.requests += m.RequestsSent
		v.core.retries += m.Retries
		v.core.holdOffs += m.HoldOffs
		v.core.deferred += m.Deferred
		v.core.installs += m.Installs
		v.core.refreshes += m.Refreshes
		v.core.staleDrops += m.StaleDrops
	}
	v.server += v.kernel
	v.net = w.NetStats()
	v.bridge = w.BridgeStats()
	v.events = w.EventsDispatched()
	v.mem = w.MemFootprint()
	// Per-trunk utilization exists only on a multi-trunk Ethernet.
	util, _ := w.TrunkUtilization(v.makespan)
	for _, u := range util {
		v.trunkUtilMax = math.Max(v.trunkUtilMax, u)
	}
	lat := make([]time.Duration, 0, len(in.rec.ops))
	var hist stats.Histogram
	for _, op := range in.rec.ops {
		if op.ok {
			v.okOps++
		}
		d := op.end - op.start
		lat = append(lat, d)
		hist.Observe(d)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	v.latP50, v.latP99 = quantile(lat, 0.5), quantile(lat, 0.99)
	v.histP99 = hist.Quantile(0.99)
	return v
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of a sample set (the mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides by a count that is at least one.
func per(x float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	return x / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd computes the virtual-time end-to-end metrics of one world.
func (v virt) endToEnd(hosts int) map[string]float64 {
	return map[string]float64{
		"mem_bytes_per_host": per(float64(v.mem), hosts),
		"virtual_s":          v.makespan.Seconds(),
		"op_lat_p99_ms":      ms(v.latP99),
		"host_cpu_ms_per_op": per(ms(v.user+v.sys+v.server), v.ops),
		"wire_bytes_per_op":  per(float64(v.net.WireBytes), v.ops),
	}
}

// perLayer computes the per-layer metrics that come from one world's
// counters.
func (v virt) perLayer(hosts int) map[string]float64 {
	makespan := float64(v.makespan)
	if makespan <= 0 {
		makespan = 1
	}
	return map[string]float64{
		"sim.events_per_op":                per(float64(v.events), v.ops),
		"host.ctx_switches_per_op":         per(float64(v.ctxSwitches), v.ops),
		"host.user_cpu_ms_per_op":          per(ms(v.user), v.ops),
		"host.sys_cpu_ms_per_op":           per(ms(v.sys), v.ops),
		"host.server_cpu_ms_per_op":        per(ms(v.server), v.ops),
		"host.busy_share":                  float64(v.busy) / (makespan * float64(hosts)),
		"core.demand_faults_per_op":        per(float64(v.core.demandFaults), v.ops),
		"core.requests_per_op":             per(float64(v.core.requests), v.ops),
		"core.retry_ratio":                 ratio(v.core.retries, v.core.requests),
		"core.holdoffs_per_op":             per(float64(v.core.holdOffs), v.ops),
		"core.deferred_per_op":             per(float64(v.core.deferred), v.ops),
		"core.installs_per_op":             per(float64(v.core.installs), v.ops),
		"core.refreshes_per_op":            per(float64(v.core.refreshes), v.ops),
		"core.stale_drop_ratio":            ratio(v.core.staleDrops, v.core.installs+v.core.refreshes+v.core.staleDrops),
		"core.kernel_cpu_ms_per_op":        per(ms(v.kernel), v.ops),
		"medium.frames_per_op":             per(float64(v.net.Frames), v.ops),
		"medium.payload_bytes_per_op":      per(float64(v.net.PayloadBytes), v.ops),
		"medium.utilization":               float64(v.net.BusyTime) / makespan,
		"medium.ring_drops":                float64(v.net.RingDrops),
		"medium.ring_high_water":           float64(v.net.RingHighWater),
		"medium.wire_lost":                 float64(v.net.WireLost),
		"ethernet.bridge_forwarded_per_op": per(float64(v.bridge.Forwarded), v.ops),
		"ethernet.bridge_max_queued":       float64(v.bridge.MaxQueued),
		"ethernet.trunk_util_max":          v.trunkUtilMax,
		"fabric.fanout_frames_per_op":      per(float64(v.net.FanoutFrames), v.ops),
		"fabric.link_overflows":            float64(v.net.LinkOverflows),
		"fabric.link_max_queued":           float64(v.net.LinkMaxQueued),
		"op_lat.samples":                   float64(v.ops),
		"op_lat.p50_ms":                    ms(v.latP50),
		"op_lat.log2_p99_ratio":            float64(v.histP99) / math.Max(float64(v.latP99), 1),
	}
}
