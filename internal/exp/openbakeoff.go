package exp

import (
	"fmt"
	"time"

	"repro/internal/openload"
	"repro/internal/stats"
	"repro/internal/topo"
)

func init() {
	Register(&Experiment{
		ID:    "open-bakeoff",
		Title: "Open-system bakeoff: job response time vs offered load",
		PaperRef: "beyond the paper: §6 measures closed batches; this sweeps " +
			"a seeded open arrival stream over every balancer in the repo",
		Expect: "response times grow with ρ and diverge as ρ → 1; dynamic " +
			"balancing beats the EQUI-style fixed allocation at high load, " +
			"and speed balancing's rescan adoption keeps SPEED competitive " +
			"on arrivals it was never handed at startup",
		Run: runOpenBakeoff,
	})
}

// openStrategies lists the contenders; CFS is the no-balancer baseline
// (per-core queues, fork placement only) and EQUI the fixed allocation.
var openStrategies = []Strategy{StratSpeed, StratLoad, StratDWRR, StratULE, StratCFS, StratEQUI}

// openRhos is the offered-load sweep; 0.95 probes near-saturation where
// placement quality dominates response time.
var openRhos = []float64{0.30, 0.50, 0.70, 0.85, 0.95}

// openHorizon is an open cell's arrival window at the context's scale.
func openHorizon(ctx *Context, full time.Duration) time.Duration {
	h := full / time.Duration(ctx.Scale)
	if h < 250*time.Millisecond {
		h = 250 * time.Millisecond
	}
	return h
}

// runOpenBakeoff sweeps ρ × policy, pooling per-job sojourns across
// repetitions into mean/p50/p95/p99 response times.
func runOpenBakeoff(ctx *Context) []*Table {
	horizon := openHorizon(ctx, 8*time.Second)
	tb := &Table{
		Title: "Open-system bakeoff: sojourn time vs offered load (Tigerton, 16 cores)",
		Columns: []string{"rho", "policy", "jobs", "unfin",
			"mean ms", "p50 ms", "p95 ms", "p99 ms", "wake us"},
	}
	tb.Note("pooled over %d reps; arrivals for %v per cell, then a drain window", ctx.Reps, horizon)
	tb.Note("wake us = mean per-job wake-to-run latency over jobs that slept")

	rn := NewRunner(ctx)
	for ri, rho := range openRhos {
		for si, s := range openStrategies {
			// Result callbacks run on the Wait goroutine in submission
			// order, so pooling into per-config samples there is both
			// race-free and deterministic.
			soj, wake := &stats.Sample{}, &stats.Sample{}
			jobs, unfin := new(int), new(int)
			rn.Repeat(ri*len(openStrategies)+si, RunOpts{
				Topo: topo.Tigerton, Strategy: s,
				Open: &openload.Config{Rho: rho, Horizon: horizon},
			}, func(_ int, res RunResult) {
				*jobs += res.Admitted
				*unfin += res.Unfinished
				for _, r := range res.Jobs {
					soj.Add(float64(r.Sojourn) / 1e6)
					if r.Wakes > 0 {
						wake.Add(float64(r.WakeMean) / 1e3)
					}
				}
			})
			rn.Then(func() {
				tb.AddRow(fmt.Sprintf("%.2f", rho), string(s), *jobs, *unfin,
					fmt.Sprintf("%.3f", soj.Mean()),
					fmt.Sprintf("%.3f", soj.Percentile(50)),
					fmt.Sprintf("%.3f", soj.Percentile(95)),
					fmt.Sprintf("%.3f", soj.Percentile(99)),
					fmt.Sprintf("%.1f", wake.Mean()))
				ctx.Logf("open-bakeoff: rho=%.2f %s done (%d jobs)", rho, s, *jobs)
			})
		}
	}
	rn.Wait()
	return []*Table{tb}
}
