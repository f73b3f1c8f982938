package exp

import (
	"testing"
	"time"

	"repro/internal/openload"
	"repro/internal/stats"
	"repro/internal/topo"
)

// DWRR's round advancement used to require the active queue to empty —
// which, under open arrivals at high load, it never does: each newcomer
// joins the current round with a fresh slice, so a task expired early
// in the round was stranded behind an unbounded arrival stream. At
// ρ=0.85 over this exact cell the stranding put p99 sojourn at ~2.0s
// (max 6.6s); the round-budget force-advance bounds it near 300ms. The
// 800ms assertion discriminates the two with wide margin on both sides.
func TestDWRROpenTailBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second open-system cells skipped in short mode")
	}
	soj := &stats.Sample{}
	unfin := 0
	for rep := 0; rep < 4; rep++ {
		res := Run(RunOpts{
			Topo: topo.Tigerton, Strategy: StratDWRR, Seed: seedFor(20100109, 900, rep),
			Open: &openload.Config{Rho: 0.85, Horizon: 8 * time.Second},
		})
		for _, r := range res.Jobs {
			soj.Add(float64(r.Sojourn) / 1e6)
		}
		unfin += res.Unfinished
	}
	if soj.N() < 1000 {
		t.Fatalf("only %d jobs completed — the cell is not exercising the tail", soj.N())
	}
	p99 := soj.Percentile(99)
	t.Logf("DWRR rho=0.85: n=%d unfin=%d p50=%.1fms p99=%.1fms max=%.1fms",
		soj.N(), unfin, soj.Percentile(50), p99, soj.Max())
	if p99 > 800 {
		t.Errorf("p99 sojourn %.1fms > 800ms — expired tasks are being stranded behind open-round arrivals again", p99)
	}
	if unfin != 0 {
		t.Errorf("%d jobs unfinished after the drain window", unfin)
	}
}

// Rescan adoption used to pin a newly appeared thread to whatever core
// the fork placer's stale snapshot dropped it on. A job shorter than
// the balance interval finishes before any pull can rescue it, so that
// pin was the only placement it ever got — and at ρ=0.5 it made SPEED's
// p95 sojourn the worst of all six policies (108ms against LOAD's 99ms
// over these exact cells). With adoption placed via the predictor's
// fastest-core estimate (least-loaded fallback when cold, as here —
// these cells run reactive), SPEED lands mid-pack at ~78ms. The test
// asserts the ordering, not the absolute numbers: SPEED's p95 must
// stay strictly better than the worst contender's.
func TestSpeedLowRhoP95NotWorst(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second open-system cells skipped in short mode")
	}
	p95 := make(map[string]float64, len(openStrategies))
	for _, s := range openStrategies {
		soj := &stats.Sample{}
		for rep := 0; rep < 3; rep++ {
			res := Run(RunOpts{
				Topo: topo.Tigerton, Strategy: s, Seed: seedFor(20100109, 910, rep),
				Open: &openload.Config{Rho: 0.5, Horizon: 4 * time.Second},
			})
			for _, r := range res.Jobs {
				soj.Add(float64(r.Sojourn) / 1e6)
			}
		}
		if soj.N() < 500 {
			t.Fatalf("%s: only %d jobs completed", s, soj.N())
		}
		p95[string(s)] = soj.Percentile(95)
		t.Logf("%-7s p95 = %.1fms over %d jobs", s, p95[string(s)], soj.N())
	}
	speed := p95[string(StratSpeed)]
	worst := 0.0
	for name, v := range p95 {
		if name != string(StratSpeed) && v > worst {
			worst = v
		}
	}
	if speed >= worst {
		t.Errorf("SPEED p95 %.1fms is the worst of the pack (next worst %.1fms) — short open jobs are being pinned in place at adoption again", speed, worst)
	}
}
