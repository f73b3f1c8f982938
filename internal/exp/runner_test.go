package exp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/topo"
)

// panicOpts is a cell whose machine setup panics with msg.
func panicOpts(msg string) RunOpts {
	o := runnerOpts()
	o.Setup = func(*sim.Machine) { panic(msg) }
	return o
}

func runnerOpts() RunOpts {
	return RunOpts{
		Topo:     func() *topo.Topology { return topo.SMP(2) },
		Strategy: StratLoad,
		Spec: spmd.Spec{
			Name: "t", Threads: 3, Iterations: 3, WorkPerIteration: 1e6,
			Model: spmd.UPC(),
		},
	}
}

// Callbacks and Then hooks are delivered strictly in submission order,
// regardless of the order cells complete in.
func TestRunnerDeliveryOrder(t *testing.T) {
	ctx := &Context{Reps: 3, Scale: 1, Seed: 7, Parallelism: 8}
	r := NewRunner(ctx)
	var got []string
	for cfg := 0; cfg < 4; cfg++ {
		cfg := cfg
		r.Repeat(cfg, runnerOpts(), func(rep int, res RunResult) {
			if res.Elapsed <= 0 {
				t.Errorf("config %d rep %d: degenerate result", cfg, rep)
			}
			got = append(got, fmt.Sprintf("c%dr%d", cfg, rep))
		})
		r.Then(func() { got = append(got, fmt.Sprintf("then%d", cfg)) })
	}
	r.Wait()
	var want []string
	for cfg := 0; cfg < 4; cfg++ {
		for rep := 0; rep < 3; rep++ {
			want = append(want, fmt.Sprintf("c%dr%d", cfg, rep))
		}
		want = append(want, fmt.Sprintf("then%d", cfg))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("delivery order:\n got %v\nwant %v", got, want)
	}
}

// The same grid produces identical results at every parallelism level —
// the slot-indexed aggregation contract of the Runner itself.
func TestRunnerParallelismInvariant(t *testing.T) {
	collect := func(par int) []time.Duration {
		ctx := &Context{Reps: 4, Scale: 1, Seed: 42, Parallelism: par}
		r := NewRunner(ctx)
		var out []time.Duration
		for cfg := 0; cfg < 3; cfg++ {
			o := runnerOpts()
			o.Spec.WorkJitter = 0.2
			r.Repeat(cfg, o, func(_ int, res RunResult) { out = append(out, res.Elapsed) })
		}
		r.Wait()
		return out
	}
	base := collect(1)
	for _, par := range []int{2, 8} {
		got := collect(par)
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("parallelism %d: cell %d elapsed %v, want %v", par, i, got[i], base[i])
			}
		}
	}
}

// A panicking cell cancels the remaining cells and surfaces through
// Wait; already-delivered callbacks are unaffected.
func TestRunnerPanicCancels(t *testing.T) {
	ctx := &Context{Reps: 1, Scale: 1, Seed: 1, Parallelism: 1}
	r := NewRunner(ctx)
	ran := 0
	r.Submit(runnerOpts(), func(RunResult) { ran++ })
	r.Submit(panicOpts("boom"), func(RunResult) { ran++ })
	r.Submit(runnerOpts(), func(RunResult) { ran++ })

	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Wait did not re-panic on cell failure")
		}
		if !strings.Contains(fmt.Sprint(p), "boom") || !strings.Contains(fmt.Sprint(p), "cell 1") {
			t.Errorf("panic %v does not identify the failed cell", p)
		}
		if ran != 1 {
			t.Errorf("delivered %d callbacks, want 1 (cells after the failure must be cancelled)", ran)
		}
	}()
	r.Wait()
}

// FailFast: a run overrunning its simulated time limit cancels the
// remaining cells; without FailFast the truncated value is tabulated.
func TestRunnerFailFast(t *testing.T) {
	overrun := runnerOpts()
	overrun.Spec.WorkPerIteration = 1e12 // ~17 min of work ...
	overrun.Limit = time.Millisecond     // ... in a 1 ms budget

	// Default: truncation is tabulated (Speedup 0), not fatal.
	var res RunResult
	Repeat(&Context{Reps: 1, Seed: 1}, 0, overrun, func(_ int, r RunResult) { res = r })
	if !res.Truncated || res.Speedup != 0 || res.Elapsed != time.Millisecond {
		t.Errorf("truncated run not surfaced: %+v", res)
	}

	// FailFast: the overrun aborts the experiment.
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("FailFast did not abort on time-limit overrun")
		} else if !strings.Contains(fmt.Sprint(p), "overran") {
			t.Errorf("panic %v does not describe the overrun", p)
		}
	}()
	r := NewRunner(&Context{Reps: 1, Seed: 1, FailFast: true, Parallelism: 4})
	r.Repeat(0, overrun, nil)
	r.Wait()
}

// Logf is safe for concurrent use: parallel writers may interleave
// lines, but never bytes within a line.
func TestLogfSerialised(t *testing.T) {
	var buf bytes.Buffer
	ctx := &Context{Log: &buf}
	const writers, lines = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				ctx.Logf("writer %d line %d of %d", w, i, lines)
			}
		}(w)
	}
	wg.Wait()
	out := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(out) != writers*lines {
		t.Fatalf("got %d lines, want %d", len(out), writers*lines)
	}
	for _, l := range out {
		if !strings.HasPrefix(l, "writer ") || !strings.HasSuffix(l, fmt.Sprintf(" of %d", lines)) {
			t.Fatalf("interleaved log line: %q", l)
		}
	}
}

// Context.Interrupt aborts the grid between cells: a channel closed
// before Wait skips every cell, and Wait surfaces ErrInterrupted.
func TestRunnerInterruptBeforeStart(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	ctx := &Context{Reps: 3, Seed: 1, Parallelism: 2, Interrupt: interrupt}
	r := NewRunner(ctx)
	ran := 0
	r.Repeat(0, runnerOpts(), func(int, RunResult) { ran++ })
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Wait did not panic on an interrupted grid")
		}
		err, ok := p.(error)
		if !ok || !errors.Is(err, ErrInterrupted) {
			t.Errorf("Wait panicked with %v, want ErrInterrupted", p)
		}
		if ran != 0 {
			t.Errorf("delivered %d callbacks on a pre-closed interrupt, want 0", ran)
		}
	}()
	r.Wait()
}

// An interrupt arriving mid-grid cancels only the not-yet-started tail:
// the delivered prefix is intact and Wait reports ErrInterrupted.
func TestRunnerInterruptMidGrid(t *testing.T) {
	interrupt := make(chan struct{})
	ctx := &Context{Reps: 1, Seed: 1, Parallelism: 1, Interrupt: interrupt}
	r := NewRunner(ctx)
	ran := 0
	r.Submit(runnerOpts(), func(RunResult) { ran++ })
	trigger := runnerOpts()
	// The abort arrives while this cell is in flight.
	trigger.Setup = func(*sim.Machine) { close(interrupt) }
	r.Submit(trigger, func(RunResult) { ran++ })
	r.Submit(runnerOpts(), func(RunResult) { ran++ })
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Wait did not panic on a mid-grid interrupt")
		}
		err, ok := p.(error)
		if !ok || !errors.Is(err, ErrInterrupted) {
			t.Errorf("Wait panicked with %v, want ErrInterrupted", p)
		}
		// The in-flight cell ran to completion; with Parallelism 1 the
		// first two cells deliver, the tail is skipped.
		if ran != 2 {
			t.Errorf("delivered %d callbacks, want 2 (prefix intact, tail skipped)", ran)
		}
	}()
	r.Wait()
}

// A Runner is reusable after Wait for a second phase.
func TestRunnerReuse(t *testing.T) {
	ctx := &Context{Reps: 2, Seed: 3, Parallelism: 2}
	r := NewRunner(ctx)
	n := 0
	r.Repeat(0, runnerOpts(), func(int, RunResult) { n++ })
	r.Wait()
	r.Repeat(1, runnerOpts(), func(int, RunResult) { n++ })
	r.Wait()
	if n != 4 {
		t.Errorf("delivered %d callbacks across two phases, want 4", n)
	}
}

// Regression: Wait used to reset items/next but leave err and cancelled
// set, so a runner reused after a handled failure (panic recovered by
// the driver, or an explicit Cancel) silently skipped every cell of the
// next phase and re-panicked the stale error.
func TestRunnerReuseAfterCancel(t *testing.T) {
	ctx := &Context{Reps: 1, Seed: 3, Parallelism: 2}
	r := NewRunner(ctx)

	// Phase 1 fails; the driver recovers, as a REPL-style caller would.
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("Wait did not panic on the failed phase")
			}
		}()
		r.Submit(panicOpts("first phase fails"), nil)
		r.Wait()
	}()

	// Phase 2 on the same runner must run its cells, not skip them, and
	// Wait must return instead of re-panicking the phase-1 error.
	n := 0
	r.Repeat(0, runnerOpts(), func(int, RunResult) { n++ })
	r.Wait()
	if n != 1 {
		t.Errorf("phase 2 delivered %d callbacks, want 1 (stale cancel state skipped cells)", n)
	}

	// Same for an explicit Cancel that the driver absorbed.
	func() {
		defer func() { recover() }()
		r.Cancel(fmt.Errorf("driver aborted"))
		r.Wait()
	}()
	n = 0
	r.Repeat(1, runnerOpts(), func(int, RunResult) { n++ })
	r.Wait()
	if n != 1 {
		t.Errorf("post-Cancel phase delivered %d callbacks, want 1", n)
	}
}
