package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the repo packages with a cpu_share.* bucket of their own.
var layers = []string{"sim", "host", "core", "proto", "medium", "ethernet", "fabric", "stats"}

// cpuBuckets are the cpu_share.* buckets: the layers, three Go runtime
// classes, and "other" (the root mether API, internal/vm, the benchmark
// itself and anything outside the repo).
var cpuBuckets = append(append([]string(nil), layers...), "go-sched", "go-gc", "go-alloc", "other")

// cpuProfile writes one CPU profile per profiled interval into dir. A
// nil *cpuProfile profiles nothing.
type cpuProfile struct {
	dir   string
	files []string
	f     *os.File
	err   error
}

func newCPUProfile(dir string) *cpuProfile { return &cpuProfile{dir: dir} }

func (p *cpuProfile) start() {
	if p == nil || p.err != nil {
		return
	}
	if p.err = os.MkdirAll(p.dir, 0o755); p.err != nil {
		return
	}
	name := filepath.Join(p.dir, fmt.Sprintf("cpu-%d.pprof", len(p.files)))
	if p.f, p.err = os.Create(name); p.err != nil {
		return
	}
	p.files = append(p.files, name)
	p.err = pprof.StartCPUProfile(p.f)
}

func (p *cpuProfile) stop() {
	if p == nil || p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := p.f.Close(); p.err == nil {
		p.err = err
	}
	p.f = nil
}

// counts merges the profiles with the toolchain's own decoder, `go tool
// pprof -traces`, and buckets each printed stack by cpuBucket, weighted
// by its sampled CPU time.
func (p *cpuProfile) counts() (map[string]time.Duration, error) {
	if p.err != nil {
		return nil, p.err
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, p.files...)...)
	// pprof keeps fetched profiles under PPROF_TMPDIR; keep it in dir.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+p.dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	counts := map[string]time.Duration{}
	var frames []string
	var weight time.Duration
	flush := func() {
		if len(frames) > 0 {
			counts[cpuBucket(frames)] += weight
		}
		frames, weight = frames[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		// A stack's first line carries its weight ("40ms"), then one
		// frame per line, innermost first.
		f := strings.Fields(line)
		if len(frames) == 0 && weight == 0 {
			if weight, err = time.ParseDuration(f[0]); err != nil {
				return nil, fmt.Errorf("go tool pprof: bad trace weight in %q", line)
			}
			f = f[1:]
		}
		if len(f) > 0 {
			frames = append(frames, f[0])
		}
	}
	flush()
	return counts, nil
}

// shares returns each bucket's share of all sampled CPU time.
func (p *cpuProfile) shares() (map[string]float64, error) {
	counts, err := p.counts()
	if err != nil {
		return nil, err
	}
	var total time.Duration
	for _, n := range counts {
		total += n
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
		if total > 0 {
			out[b] = float64(counts[b]) / float64(total)
		}
	}
	return out, nil
}

// Runtime function-name fragments for the three Go runtime buckets,
// matched against the runtime frames directly under the innermost
// non-runtime frame (or the whole stack of a runtime-only goroutine).
var (
	gcFrags    = []string{"gcBgMarkWorker", "gcDrain", "gcAssist", "markroot", "scanobject", "scanblock", "greyobject", "sweep", "gcStart", "gcMark", "wbBuf", "bulkBarrier", "gcWriteBarrier", "scavenge", "forEachP", "stopTheWorld", "startTheWorld", "gcControllerCommit", "finalizer"}
	allocFrags = []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "rawstring", "rawbyteslice", "concatstring", "slicebytetostring", "convT", "nextFreeFast", "refill", "mcache", "mcentral", "mheap"}
	schedFrags = []string{"chan", "select", "gopark", "goready", "park_m", "schedule", "findRunnable", "mcall", "gogo", "casgstatus", "futex", "notesleep", "notewakeup", "wakep", "startm", "stopm", "runq", "ready", "execute", "newproc", "goexit", "stealWork", "mPark", "handoffp", "gosched", "lock2", "unlock2", "nanotime", "procyield", "osyield", "usleep", "checkTimers", "netpoll", "resetspinning", "semacquire", "semrelease", "systemstack", "morestack", "mstart", "entersyscall", "exitsyscall", "runtime.main"}
)

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "sync/atomic.")
}

func anyFrag(frames []string, frags []string) bool {
	for _, f := range frames {
		for _, fr := range frags {
			if strings.Contains(f, fr) {
				return true
			}
		}
	}
	return false
}

// cpuBucket classifies one sample's stack, innermost frame first. The
// runtime frames at the top of the stack decide first: garbage
// collection, then allocation, then scheduler and channel work (the
// proc-handoff tax). Otherwise the sample belongs to the innermost repo
// package on the stack.
func cpuBucket(frames []string) string {
	top := 0
	for top < len(frames) && isRuntime(frames[top]) {
		top++
	}
	rt := frames[:top]
	switch {
	case anyFrag(rt, gcFrags):
		return "go-gc"
	case anyFrag(rt, allocFrags):
		return "go-alloc"
	case anyFrag(rt, schedFrags) || (top == len(frames) && top > 0):
		return "go-sched"
	}
	for _, f := range frames[top:] {
		if pkg := repoPackage(f); pkg != "" {
			for _, l := range layers {
				if pkg == l {
					return l
				}
			}
			return "other"
		}
	}
	return "other"
}

// repoPackage returns the layer name of a mether/internal/<layer>
// function, "root" for other functions of the mether module, and "" for
// functions outside it.
func repoPackage(fn string) string {
	const internal = "mether/internal/"
	if strings.HasPrefix(fn, internal) {
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "mether.") || strings.HasPrefix(fn, "mether/") || strings.HasPrefix(fn, "main.") {
		return "root"
	}
	return ""
}
