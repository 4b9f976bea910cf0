// Command perfbench is the end-to-end and per-layer benchmark of the
// Moira system. It assembles the program in its own process from the
// public constructors, drives it over loopback with seeded inputs, checks
// every reply against facts it computed itself, and prints one JSON
// result line.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench --workload query|update|dcm --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, timed from this package around calls
// into each layer's public functions on the workload's own inputs. See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupRounds is how many times a run sets its system up; setup_s is the
// median, and the last system built is the one measured.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state shared by one benchmark invocation.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool

	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	nviol int // correctness violations; the first 20 are logged

	e2e   map[string]metric
	layer map[string]metric
}

// op counts one attempted operation and, when err is non-nil, one failed
// operation; it reports whether the operation succeeded.
func (r *run) op(what string, err error) bool {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		r.logOnce("operation failed: %s: %v", what, err)
		return false
	}
	return true
}

// wrong records a reply that disagrees with the benchmark's own facts.
func (r *run) wrong(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nviol++
	if r.nviol <= 20 {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", fmt.Sprintf(format, args...))
	}
}

var logged sync.Map

func (r *run) logOnce(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if _, dup := logged.LoadOrStore(msg, true); !dup {
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
}

// report records an end-to-end metric under its shared name and prints
// the workload's own name for it.
func (r *run) report(shared, own string, v float64, unit string) {
	r.e2e[shared] = metric{v, unit}
	fmt.Printf("# %-22s %-14s %14.4f %s\n", own, "("+shared+")", v, unit)
}

// layerMetric records a per-layer metric.
func (r *run) layerMetric(name string, v float64, unit string) {
	r.layer[name] = metric{v, unit}
	fmt.Printf("# layer %-36s %14.4f %s\n", name, v, unit)
}

func main() {
	wl := flag.String("workload", "", "workload: query, update or dcm")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "measured seconds")
	tr := flag.Int("trace", 0, "1 = per-layer traced run")
	flag.Parse()

	r := &run{
		seed:    *seed,
		seconds: time.Duration(*secs) * time.Second,
		trace:   *tr == 1,
		e2e:     map[string]metric{},
		layer:   map[string]metric{},
	}
	var err error
	switch *wl {
	case "query":
		err = runQuery(r)
	case "update":
		err = runUpdate(r)
	case "dcm":
		err = runDCM(r)
	default:
		err = fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   r.nviol == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   r.e2e,
	}
	if r.trace {
		res.Metrics = r.layer
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// ---- small statistics ----

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. It panics on an empty
// slice, which only a bug can produce.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func p98(xs []float64) float64 { return quantile(xs, 0.98) }

// sample is one timed operation: when it started, relative to the start
// of the measured window, and its value.
type sample struct {
	at time.Duration
	v  float64
}

// windowed splits the measured time into windows of the given length,
// applies f to each window's values, and returns the median over the
// windows, so that a burst of interference on the shared machine moves
// one window and not the run's figure.
func windowed(xs []sample, window, total time.Duration, f func([]float64) float64) float64 {
	n := int(total / window)
	if n < 1 {
		n = 1
	}
	buckets := make([][]float64, n)
	for _, s := range xs {
		i := int(s.at / window)
		if i >= n {
			i = n - 1
		}
		buckets[i] = append(buckets[i], s.v)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, f(b))
		}
	}
	return median(per)
}

// rate turns a window's samples into operations per second; it is used
// with one-second windows.
func rate(xs []float64) float64 { return float64(len(xs)) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// timeIt runs fn n times and returns the median duration of one call; it
// stops at the first error.
func timeIt(n int, fn func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds)), nil
}

// setupMedian runs build setupRounds times, closing every system but the
// last, and returns the last system with the median set-up time.
func setupMedian[S any](build func() (S, error), closeFn func(S)) (S, float64, error) {
	var times []float64
	var sys S
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			closeFn(sys)
			runtime.GC()
		}
		t := time.Now()
		s, err := build()
		if err != nil {
			return sys, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		sys = s
	}
	return sys, median(times), nil
}

// span is one timed call recorded by the traced run.
type span struct {
	layer string
	start time.Time
	dur   time.Duration
}

// spanLog keeps the traced run's spans in memory; it is nil in untraced
// runs, and recording into a nil log does nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(layer string, start time.Time) {
	if l == nil {
		return
	}
	d := time.Since(start)
	l.mu.Lock()
	l.spans = append(l.spans, span{layer, start, d})
	l.mu.Unlock()
}

// durations returns the recorded durations of one layer, in µs.
func (l *spanLog) durations(layer string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.layer == layer {
			out = append(out, us(s.dur))
		}
	}
	return out
}
