package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one traced interval. Host spans are real nanoseconds since the
// traced run started; virtual spans are simulated nanoseconds since the
// world started. Parent is the enclosing host span (-1 for none); Op is
// the op id of a virtual span (-1 on host spans).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int    `json:"op"`
	Host   int    `json:"host"`
}

// tracer keeps the traced run's spans in memory until write. A nil
// *tracer records nothing, so untraced runs call the same code paths.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open host spans
	ops   int   // op ids handed out so far
	// goroutinesPeak is the largest goroutine count seen at a span
	// boundary or op completion.
	goroutinesPeak int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

func (t *tracer) sampleGoroutines() {
	if g := runtime.NumGoroutine(); g > t.goroutinesPeak {
		t.goroutinesPeak = g
	}
}

// begin opens a host span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Clock: "host",
		Start: int64(time.Since(t.t0)), Op: -1, Host: -1})
	t.open = append(t.open, id)
	return id
}

// end closes the host span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	t.sampleGoroutines()
}

// op records one application op as a virtual span under the open host
// span (the run).
func (t *tracer) op(kind string, host int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.parent(), Name: kind, Clock: "virtual",
		Start: int64(start), End: int64(end), Op: t.ops, Host: host})
	t.ops++
	t.sampleGoroutines()
}

// durations returns the durations of every host span with the given
// name, in the order they were opened.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Clock == "host" && s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// sumsPer returns, for each host span named parent, the summed duration
// of the spans named child directly inside it.
func (t *tracer) sumsPer(parent, child string) []float64 {
	idx := map[int]int{}
	var out []float64
	for _, s := range t.spans {
		if s.Clock != "host" {
			continue
		}
		if s.Name == parent {
			idx[s.ID] = len(out)
			out = append(out, 0)
		} else if i, ok := idx[s.Parent]; ok && s.Name == child {
			out[i] += float64(s.End - s.Start)
		}
	}
	return out
}

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// opRec is one completed application op: its host, kind, virtual span
// and whether its oracle held.
type opRec struct {
	host       int
	kind       string
	start, end time.Duration
	ok         bool
}

// recorder collects a world's op stamps. The stamps read env.Now() and
// nothing else, so they do not perturb the simulation.
type recorder struct {
	ops []opRec
	tr  *tracer
}

func newRecorder(n int, tr *tracer) *recorder {
	return &recorder{ops: make([]opRec, 0, n), tr: tr}
}

func (r *recorder) op(host int, kind string, start, end time.Duration, ok bool) {
	r.ops = append(r.ops, opRec{host: host, kind: kind, start: start, end: end, ok: ok})
	r.tr.op(kind, host, start, end)
}
