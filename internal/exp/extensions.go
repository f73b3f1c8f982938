package exp

// The ext-* experiments evaluate the paper's stated future work,
// implemented in this reproduction (see DESIGN.md):
//
//   - ext-smt: weighting thread speed by the sibling hardware context's
//     state ("In future work we intend to weight the speed of a task
//     according to the state of the other hardware context", §6).
//   - ext-measure: a performance-counter (retired-work) speed signal
//     instead of exec/real (§7).
//   - ext-swap: thread exchanges for one-thread-per-core imbalances
//     that the paper's pull-only design cannot express.

import (
	"fmt"

	"repro/internal/cpuset"
	"repro/internal/npb"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/topo"
)

func init() {
	Register(&Experiment{
		ID:       "ext-smt",
		Title:    "Extension: SMT-aware speed weighting on Nehalem",
		PaperRef: "§6 (stated future work)",
		Expect: "12 threads on 16 logical CPUs leave 4 physical cores " +
			"dual-occupied; every balancer that only sees per-logical-CPU " +
			"shares is blind to it. Weighting by sibling occupancy (plus swaps) " +
			"rotates contention and approaches the 9.2-capacity ideal.",
		Run: runExtSMT,
	})
	Register(&Experiment{
		ID:       "ext-measure",
		Title:    "Extension: performance-counter (work-rate) speed signal",
		PaperRef: "§7 (stated future work)",
		Expect: "Memory-bound threads clumped on two sockets saturate the FSB; " +
			"every thread owns a full core, so the exec/real signal is blind. " +
			"The retired-work signal spreads them across sockets.",
		Run: runExtMeasure,
	})
	Register(&Experiment{
		ID:       "ext-swap",
		Title:    "Extension: swaps for one-thread-per-core asymmetry",
		PaperRef: "beyond the paper (pull-only limitation)",
		Expect: "With one thread per core on 4×1.5x + 4×1.0x cores, any pull " +
			"lowers utilisation; swaps rotate fast-core time and approach the " +
			"capacity-10 ideal while plain SPEED stays at the slow cores' pace.",
		Run: runExtSwap,
	})
}

func runExtSMT(ctx *Context) []*Table {
	t := &Table{
		Title:   "EP, 12 threads on Nehalem (16 logical / 8 physical CPUs)",
		Columns: []string{"config", "elapsed s", "speedup", "migrations+swaps"},
	}
	// Finishers block (MPI-style), freeing their hardware contexts;
	// only the SMT-aware measure routes stragglers onto them.
	spec := ScaleSpec(ctx, npb.EP.Spec(12,
		spmd.Model{Name: "mpi-block", Policy: task.WaitBlock}, cpuset.Set{}))
	type cfgRow struct {
		name string
		cfg  *speedbal.Config
		st   Strategy
	}
	aware := speedbal.DefaultConfig()
	aware.SMTAware = true
	aware.EnableSwaps = true
	aware.BlockNUMA = false
	plain := speedbal.DefaultConfig()
	plain.BlockNUMA = false
	rows := []cfgRow{
		{"PINNED", nil, StratPinned},
		{"LOAD", nil, StratLoad},
		{"SPEED", &plain, StratSpeed},
		{"SPEED smt-aware", &aware, StratSpeed},
	}
	run := NewRunner(ctx)
	config := 8000
	for _, r := range rows {
		el, sp, mig := &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
		run.Repeat(config, RunOpts{
			Topo: topo.Nehalem, Strategy: r.st, Spec: spec, SpeedCfg: r.cfg,
		}, func(_ int, res RunResult) {
			el.AddDuration(res.Elapsed)
			sp.Add(res.Speedup)
			mig.Add(float64(res.AppMigrations))
		})
		config++
		run.Then(func() {
			t.AddRow(r.name, el.Mean(), sp.Mean(), mig.Mean())
			ctx.Logf("ext-smt: %s done", r.name)
		})
	}
	run.Wait()
	t.Note("capacity with 4 dual-occupied physical cores is 8×0.65 + 4×1.0 = 9.2 of 12")
	return []*Table{t}
}

func runExtMeasure(ctx *Context) []*Table {
	t := &Table{
		Title:   "Memory-bound app clumped on 2 of 4 Tigerton sockets (managed set spans all 16 cores)",
		Columns: []string{"measure", "elapsed s", "migrations"},
	}
	// Clumped start: the speed balancer pins the 8 threads round-robin
	// over its 16-core managed set, which fills cores 0–7 (sockets 0 and
	// 1) and leaves two sockets free. With no OS balancer underneath,
	// the measure under test decides whether it discovers them.
	spec := ScaleSpec(ctx, spmd.Spec{
		Name: "mem", Threads: 8, Iterations: 1, WorkPerIteration: 4e9,
		Model: spmd.UPC(), RSSBytes: 1 << 20, MemIntensity: 0.9,
		Affinity: cpuset.All(16),
	})
	run := NewRunner(ctx)
	config := 8100
	for _, meas := range []speedbal.Measure{speedbal.MeasureCPUShare, speedbal.MeasureWorkRate} {
		el, mig := &stats.Sample{}, &stats.Sample{}
		cfg := speedbal.DefaultConfig()
		cfg.Measure = meas
		run.Repeat(config, RunOpts{
			Topo: topo.Tigerton, Strategy: StratSpeedOnly, Spec: spec, SpeedCfg: &cfg,
		}, func(_ int, res RunResult) {
			el.Add(res.Elapsed.Seconds())
			mig.Add(float64(res.SpeedbalMigrations))
		})
		config++
		run.Then(func() {
			t.AddRow(meas.String(), el.Mean(), mig.Mean())
			ctx.Logf("ext-measure: %s done", meas)
		})
	}
	run.Wait()
	t.Note("clumped: 4 mem-bound threads per FSB run at f = 0.35; spread across 4 sockets f = 0.6")
	return []*Table{t}
}

func runExtSwap(ctx *Context) []*Table {
	t := &Table{
		Title:   "8 threads on 8 asymmetric cores (4×1.5x + 4×1.0x), capacity 10",
		Columns: []string{"config", "elapsed s", "swaps"},
	}
	speeds := []float64{1.5, 1.5, 1.5, 1.5, 1, 1, 1, 1}
	spec := ScaleSpec(ctx, spmd.Spec{
		Name: "app", Threads: 8, Iterations: 1, WorkPerIteration: 6e9,
		Model: spmd.UPC(),
	})
	swap := speedbal.DefaultConfig()
	swap.EnableSwaps = true
	rows := []struct {
		name string
		st   Strategy
		cfg  *speedbal.Config
	}{
		{"PINNED", StratPinned, nil},
		{"LOAD", StratLoad, nil},
		{"SPEED (pull-only)", StratSpeed, nil},
		{"SPEED + swaps", StratSpeed, &swap},
	}
	run := NewRunner(ctx)
	config := 8200
	for _, r := range rows {
		el, sw := &stats.Sample{}, &stats.Sample{}
		run.Repeat(config, RunOpts{
			Topo:     func() *topo.Topology { return topo.Asymmetric(speeds) },
			Strategy: r.st, Spec: spec, SpeedCfg: r.cfg,
		}, func(_ int, res RunResult) {
			el.AddDuration(res.Elapsed)
			sw.Add(float64(res.Stats.Migrations["speedbal-swap"]) / 2)
		})
		config++
		run.Then(func() {
			t.AddRow(r.name, el.Mean(), sw.Mean())
			ctx.Logf("ext-swap: %s done", r.name)
		})
	}
	run.Wait()
	t.Note(fmt.Sprintf("per-thread work %.3gs; ideal elapsed = 8·W/10", spec.WorkPerIteration/1e9))
	return []*Table{t}
}
