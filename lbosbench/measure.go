package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// runConfig is one run of a workload: the timed run, or the traced
// replay of the same inputs.
type runConfig struct {
	seed    uint64
	seconds float64
	// traced asks the workload for its own per-layer instruments
	// (scheduler decorator, serve spans); phase brackets the ops so the
	// caller can profile exactly them.
	traced bool
	phase  phaseHooks
}

// phaseHooks run just before the first op and just after the last.
type phaseHooks struct {
	start, stop func()
}

// runResult is what one run of a workload measured.
type runResult struct {
	setupS   []float64 // seconds per setup repetition
	opS      []float64 // host seconds per op, in op order
	elapsedS float64   // wall time of all ops together
	allocs   uint64    // heap allocations during the ops
	heapPeak float64   // bytes; see heapWatch
	digests  []string  // SHA-256 of each op's output, in op order
	failed   int
	failures []string // the first few failure reasons
	// summary holds the workload's own end-to-end lines for the
	// human-readable report (e.g. serve-mix's hit/miss latencies).
	summary []reportLine
	// layer holds per-layer values the workload measured itself,
	// already normalised per op where the metric is a count or a time.
	layer map[string]float64
}

// reportLine is one metric in the human-readable report.
type reportLine struct {
	name  string
	value float64
	unit  string
	n     int // sample count, 0 when not a sampled statistic
}

// maxFailures bounds the failure reasons kept for the report.
const maxFailures = 8

// fail records one failed op.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// ops is the number of ops attempted.
func (r *runResult) ops() int { return len(r.opS) }

// setupReps is how many times each run builds its workload's state;
// setup_s is the median, and the last build is the one the ops run on.
const setupReps = 5

// timeSetups runs build setupReps times and records each duration.
func timeSetups(res *runResult, build func() error) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		sw := clock.Start()
		if err := build(); err != nil {
			return err
		}
		res.setupS = append(res.setupS, sw.Elapsed().Seconds())
	}
	return nil
}

// closedLoop runs op back to back until cfg.seconds have passed (at
// least one op), recording per-op time, allocations and digests. A
// panicking or erroring op counts as failed; the loop goes on.
func closedLoop(cfg runConfig, res *runResult, op func(i int) (string, error)) {
	timedPhase(cfg, res, func(_ *heapWatch, total clock.Stopwatch) {
		for i := 0; i == 0 || total.Elapsed().Seconds() < cfg.seconds; i++ {
			sw := clock.Start()
			digest, err := safeOp(func() (string, error) { return op(i) })
			res.opS = append(res.opS, sw.Elapsed().Seconds())
			res.digests = append(res.digests, digest)
			if err != nil {
				res.fail("op %d: %v", i, err)
			}
		}
	})
}

// timedPhase brackets a workload's timed ops: it starts the heap watch,
// counts allocations and runs the phase hooks around ops, which gets
// the heap watch and a stopwatch started with the phase, then records
// the phase's wall time, allocations and heap peak in res.
func timedPhase(cfg runConfig, res *runResult, ops func(hw *heapWatch, total clock.Stopwatch)) {
	hw := startHeapWatch()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	cfg.phase.start()
	total := clock.Start()
	ops(hw, total)
	res.elapsedS = total.Elapsed().Seconds()
	cfg.phase.stop()
	runtime.ReadMemStats(&ms)
	res.allocs = ms.Mallocs - allocs0
	res.heapPeak = hw.stop()
}

// safeOp runs fn, turning a panic into an error.
func safeOp(fn func() (string, error)) (digest string, err error) {
	defer func() {
		if p := recover(); p != nil {
			digest, err = "", fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// heapWatch tracks the peak live Go heap over a run. It reads
// `/gc/heap/live:bytes` (the heap the last GC cycle marked live) once
// per GC cycle, from a self-re-arming finalizer, and reports the 90th
// percentile of those readings, so one outlying cycle cannot set the
// peak. The live heap moves only with what the program retains, so it
// is far steadier than the total heap, which also holds a random amount
// of garbage awaiting the next cycle; the total peaks near twice the
// live heap (GOGC=100). No timer or sampling goroutine is involved.
type heapWatch struct {
	mu       sync.Mutex
	readings []float64
	stopped  atomic.Bool
	sample0  []metrics.Sample
}

// gcSentinel holds a pointer so it is never placed in the tiny
// allocator, whose objects may never be finalized.
type gcSentinel struct{ _ *int }

// startHeapWatch collects garbage, so the first reading is the live
// heap the timed ops start from, and starts watching.
func startHeapWatch() *heapWatch {
	runtime.GC()
	h := &heapWatch{sample0: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.sample()
	h.arm()
	return h
}

// arm registers a finalizer on a fresh sentinel; the next GC cycle
// finds it unreachable, runs the finalizer, which samples and re-arms.
func (h *heapWatch) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		if !h.stopped.Load() {
			h.sample()
			h.arm()
		}
	})
}

func (h *heapWatch) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample0)
	if v := h.sample0[0].Value; v.Kind() == metrics.KindUint64 {
		h.readings = append(h.readings, float64(v.Uint64()))
	}
}

// freeze stops taking readings; safe to call more than once and from
// any goroutine.
func (h *heapWatch) freeze() { h.stopped.Store(true) }

// stop freezes the readings and returns the peak in bytes.
func (h *heapWatch) stop() float64 {
	h.freeze()
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(h.readings, 0.9)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
