// Command perfbench is the repository's fixed-work benchmark. It drives
// the public mether API from outside the simulator, one world at a time,
// on one of three workloads, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1) named in
// BENCHMARK.json. Every run checks its outputs and exits non-zero when a
// check fails. See README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 0, "workload seed")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics and units")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	def, err := loadDefinition(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg, err := configFor(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// The simulator is one logical thread of control: its procs are
	// goroutines that hand off to each other one at a time. One P keeps
	// every handoff a user-space goroutine switch instead of a
	// cross-thread wakeup, which is both faster and far less sensitive
	// to other load on the machine.
	runtime.GOMAXPROCS(1)
	sp := specFor(cfg)
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res, err = measure(sp, budget)
	} else {
		res, err = measureTraced(sp, budget, filepath.Join(*out, fmt.Sprintf("%s-seed%d.spans.jsonl", *name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := def.EndToEnd
	if *trace == 1 {
		want = def.PerLayer
	}
	if err := res.print(os.Stdout, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// definition is the part of BENCHMARK.json the program reads: which
// metrics each mode reports, with their units.
type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDefinition(path string) (definition, error) {
	var def definition
	b, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// rep is one world built, run, harvested and checked.
type rep struct {
	setup, run time.Duration // host time
	mallocs    uint64        // heap allocations during the run
	gcShare    float64       // GC share of the run's CPU time
	v          virt
	failed     int
	problems   []string
}

// runOnce builds one world, runs its fixed work and checks it. tr and
// prof are nil on untraced reps.
func runOnce(sp spec, tr *tracer, prof *cpuProfile) (rep, error) {
	var r rep
	defer tr.end(tr.begin("rep"))
	s := tr.begin("setup")
	t0 := time.Now()
	in, err := sp.build(tr)
	r.setup = time.Since(t0)
	tr.end(s)
	if err != nil {
		return r, err
	}
	defer in.w.Shutdown()
	// Start every run from the same collected heap.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := cpuSeconds()
	prof.start()
	s = tr.begin("mether.RunUntil")
	t1 := time.Now()
	in.w.RunUntil(in.cap)
	r.run = time.Since(t1)
	tr.end(s)
	prof.stop()
	gc1, cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	if cpu1 > cpu0 {
		r.gcShare = (gc1 - gc0) / (cpu1 - cpu0)
	}
	s = tr.begin("harvest")
	r.v = harvest(in)
	tr.end(s)
	s = tr.begin("check")
	r.failed, r.problems = check(sp, in, r.v)
	tr.end(s)
	return r, nil
}

// check applies every correctness check to a run world and returns how
// many of its ops failed and why. An op fails on an error, on a DNF at
// the cap, or on a failed oracle; a broken invariant fails them all.
func check(sp spec, in *instance, v virt) (int, []string) {
	var problems []string
	clean := true
	for i, err := range in.errs {
		if err != nil {
			problems = append(problems, fmt.Sprintf("client %d: %v", i, err))
			clean = false
		}
	}
	dnf := 0
	for _, d := range in.done {
		if !d {
			dnf++
		}
	}
	if dnf > 0 {
		problems = append(problems, fmt.Sprintf("%d clients did not finish by the %v cap", dnf, in.cap))
		clean = false
	}
	failed := sp.ops - v.okOps
	if bad := v.ops - v.okOps; bad > 0 {
		problems = append(problems, fmt.Sprintf("%d ops failed their oracle", bad))
	}
	if err := in.w.CheckInvariants(); err != nil {
		problems = append(problems, "invariants: "+err.Error())
		failed = sp.ops
	}
	if clean {
		if bad := in.verify(); bad > 0 {
			problems = append(problems, fmt.Sprintf("read-back: %d words wrong", bad))
			failed += bad
		}
	}
	if failed > sp.ops {
		failed = sp.ops
	}
	return failed, problems
}

// cpuSeconds reads the runtime's cumulative GC and total CPU estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// setupOnly times one world's set-up and discards the world.
func setupOnly(sp spec) (time.Duration, error) {
	t0 := time.Now()
	in, err := sp.build(nil)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	in.w.Shutdown()
	return d, nil
}

// setupBuilds is how many set-up-only worlds a run builds before its
// timed reps. They let the heap grow to working size before anything
// is timed, and give setup_s, a few milliseconds per world, enough
// samples for a steady median.
const setupBuilds = 30

// result is what a run prints.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	// notes are printed beside the metric of the same name.
	notes map[string]string
}

func (r result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// collect merges reps into the result's failure accounting and checks
// that every rep reproduced the first one's virtual counters.
func (r *result) collect(sp spec, reps []rep) {
	for i, rp := range reps {
		r.attempted += sp.ops
		r.failed += rp.failed
		for _, p := range rp.problems {
			r.problems = append(r.problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		if rp.v != reps[0].v {
			r.problems = append(r.problems, fmt.Sprintf("rep %d: virtual counters differ from rep 0: nondeterministic run", i))
			r.failed += sp.ops - rp.failed
		}
	}
}

func runs(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, rp := range reps {
		out[i] = f(rp)
	}
	return out
}

// measure is the untraced run: set-up-only builds, then as many reps of
// the fixed work as fit the budget (at least one), reported as medians.
func measure(sp spec, budget time.Duration) (result, error) {
	start := time.Now()
	var setups []float64
	for i := 0; i < setupBuilds; i++ {
		d, err := setupOnly(sp)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	var reps []rep
	for {
		r, err := runOnce(sp, nil, nil)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		setups = append(setups, r.setup.Seconds())
		if time.Since(start)+r.setup+r.run > budget {
			break
		}
	}
	res := result{metrics: reps[0].v.endToEnd(sp.hosts), notes: map[string]string{}}
	res.collect(sp, reps)
	ops := reps[0].v.ops
	res.metrics["setup_s"] = median(setups)
	res.metrics["run_s"] = median(runs(reps, func(r rep) float64 { return r.run.Seconds() }))
	res.metrics["allocs_per_op"] = per(median(runs(reps, func(r rep) float64 { return float64(r.mallocs) })), ops)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.metrics["op_ok_ratio"] = 1 - float64(res.failed)/float64(res.attempted)
	res.metrics["op_fail_ratio"] = float64(res.failed) / float64(res.attempted)
	res.notes["op_lat_p99_ms"] = fmt.Sprintf("(%d op spans, %d beyond p99; p50 %.6f ms; log2-bucket p99 %.3f ms)",
		ops, ops-int(math.Ceil(0.99*float64(ops))), ms(reps[0].v.latP50), ms(reps[0].v.histP99))
	res.notes["run_s"] = fmt.Sprintf("(median of %d reps)", len(reps))
	res.notes["setup_s"] = fmt.Sprintf("(median of %d set-ups)", len(setups))
	return res, nil
}

// measureTraced is the traced run. It alternates untraced and traced
// reps of the same world while the budget lasts (at least one pair),
// then runs the microdrivers, and reports the per-layer metrics plus the
// tracing overhead. Spans are written to spansPath at the end.
func measureTraced(sp spec, budget time.Duration, spansPath string) (result, error) {
	start := time.Now()
	tr := newTracer()
	prof := newCPUProfile(filepath.Dir(spansPath))
	var plain, traced []rep
	for {
		u, err := runOnce(sp, nil, nil)
		if err != nil {
			return result{}, err
		}
		t, err := runOnce(sp, tr, prof)
		if err != nil {
			return result{}, err
		}
		plain, traced = append(plain, u), append(traced, t)
		if time.Since(start)+u.setup+u.run+t.setup+t.run > budget {
			break
		}
	}
	micro, microProblems := runMicros(tr)

	res := result{metrics: plain[0].v.perLayer(sp.hosts), notes: map[string]string{}}
	res.collect(sp, append(append([]rep(nil), plain...), traced...))
	res.attempted += len(micros)
	res.failed += len(microProblems)
	res.problems = append(res.problems, microProblems...)
	for k, v := range micro {
		res.metrics[k] = v
	}
	events := float64(plain[0].v.events)
	plainRun := median(runs(plain, func(r rep) float64 { return r.run.Seconds() }))
	tracedRun := median(runs(traced, func(r rep) float64 { return r.run.Seconds() }))
	res.metrics["sim.ns_per_event"] = plainRun * 1e9 / events
	res.metrics["go.allocs_per_event"] = median(runs(plain, func(r rep) float64 { return float64(r.mallocs) })) / events
	res.metrics["go.gc_cpu_share"] = median(runs(plain, func(r rep) float64 { return r.gcShare }))
	res.metrics["go.goroutines_peak"] = float64(tr.goroutinesPeak)
	res.metrics["trace.overhead_ratio"] = tracedRun/plainRun - 1
	res.metrics["mether.new_world_s"] = median(tr.durations("mether.NewWorld")) / 1e9
	res.metrics["mether.segment_s"] = median(tr.durations("mether.CreateSegment")) / 1e9
	res.metrics["mether.spawn_s"] = median(tr.sumsPer("setup", "mether.Spawn")) / 1e9
	shares, err := prof.shares()
	if err != nil {
		return result{}, err
	}
	for b, share := range shares {
		res.metrics["cpu_share."+b] = share
	}
	res.notes["trace.overhead_ratio"] = fmt.Sprintf("(%d untraced vs %d traced reps)", len(plain), len(traced))
	if err := tr.write(spansPath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), spansPath)
	return res, nil
}

// peakRSSMB reads the process's resident high-water mark. Each run is
// its own process, so this is the run's peak.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// print writes one human-readable line per metric, then the problems,
// then the machine-readable result as the last line. Every metric named
// in want must have been computed.
func (r result) print(f *os.File, want []metricDef) error {
	out := map[string]any{}
	w := bufio.NewWriter(f)
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %q was not computed", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", m.Name, v)
		}
		fmt.Fprintf(w, "%-36s %16.6f %-6s %s\n", m.Name, v, m.Unit, r.notes[m.Name])
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if v, ok := r.metrics["op_fail_ratio"]; ok {
		fmt.Fprintf(w, "%-36s %16.6f %-6s (%d of %d ops failed)\n", "op_fail_ratio", v, "ratio", r.failed, r.attempted)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return w.Flush()
}
