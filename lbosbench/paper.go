package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/pprof"
	"strings"

	"repro/internal/exp"
	"repro/internal/metrics"
)

// paperExperiments are the registry experiments one paper op runs, in
// order: the paper's SPMD barrier and yield traffic under SPEED, LOAD,
// DWRR, FreeBSD and PINNED.
var paperExperiments = []string{"fig2", "fig3t", "fig5"}

// paperScale divides the experiments' work (exp.Context.Scale); at 4 one
// op takes about a second on a 2-core x86 host, so a 10 s run times
// about ten ops.
const paperScale = 4

// paperWarmScale is the much smaller pass each setup makes, so code and
// heap are warm before the first timed op.
const paperWarmScale = 64

// paperOp runs one serial pass over paperExperiments and returns the
// SHA-256 of the concatenated rendered tables plus the pass's merged
// metrics. shards > 1 runs every cell on that many serial event shards:
// a different engine configuration that must give the same bytes.
//
// Each experiment runs under the pprof label expLabel=<id>, which the
// cells' goroutines inherit, so a CPU profile splits by experiment.
func paperOp(ids []*exp.Experiment, seed uint64, scale, parallelism, shards int) (string, metrics.Snapshot, error) {
	var out bytes.Buffer
	agg := metrics.NewAggregate()
	for _, e := range ids {
		ctx := &exp.Context{
			Reps: 1, Scale: scale, Seed: seed,
			Parallelism: parallelism, Shards: shards,
			FailFast: true,
			Metrics:  agg,
		}
		var tables []*exp.Table
		pprof.Do(context.Background(), pprof.Labels(expLabel, e.ID), func(context.Context) {
			tables = e.Run(ctx)
		})
		if len(tables) == 0 {
			return "", metrics.Snapshot{}, fmt.Errorf("%s rendered no tables", e.ID)
		}
		fmt.Fprintf(&out, "== %s\n", e.ID)
		for _, t := range tables {
			if len(t.Rows) == 0 {
				return "", metrics.Snapshot{}, fmt.Errorf("%s: table %q has no rows", e.ID, t.Title)
			}
			t.Render(&out)
		}
	}
	sum := sha256.Sum256(out.Bytes())
	return hex.EncodeToString(sum[:]), agg.Snapshot(), nil
}

// runPaper is the paper workload: a closed loop whose op is one serial
// pass (reps 1, Parallelism 1) over fig2, fig3t and fig5 at the seed
// derived from the benchmark seed. Every op repeats the same inputs, so
// every op must render the same bytes; after the timed ops, one
// reference pass on a different engine configuration (2 workers, 4
// serial event shards per cell) must render them too.
func runPaper(cfg runConfig) *runResult {
	res := &runResult{layer: map[string]float64{}}
	seed := deriveSeed(cfg.seed, "paper")
	var ids []*exp.Experiment
	err := timeSetups(res, func() error {
		ids = ids[:0]
		for _, id := range paperExperiments {
			e, err := exp.ByID(id)
			if err != nil {
				return err
			}
			ids = append(ids, e)
		}
		_, _, err := paperOp(ids, seed, paperWarmScale, 1, 0)
		return err
	})
	if err != nil {
		res.fail("setup: %v", err)
		return res
	}

	var snaps []metrics.Snapshot
	closedLoop(cfg, res, func(int) (string, error) {
		d, snap, err := paperOp(ids, seed, paperScale, 1, 0)
		snaps = append(snaps, snap)
		return d, err
	})

	ref, err := safeOp(func() (string, error) {
		d, _, err := paperOp(ids, seed, paperScale, 2, 4)
		return d, err
	})
	if err != nil {
		res.fail("reference pass: %v", err)
	}
	for i, d := range res.digests {
		if err == nil && d != "" && d != ref {
			res.fail("op %d rendered tables %.12s, reference pass %.12s", i, d, ref)
		}
	}

	counters := map[string]float64{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			counters[c.Name] += float64(c.Value)
		}
	}
	n := float64(len(snaps))
	res.layer["sim.events"] = counters["sim.events"] / n
	res.layer["sim.context_switches"] = counters["sim.context_switches"] / n
	res.layer["sim.wakeups"] = counters["sim.wakeups"] / n
	labels := map[string]float64{}
	for name, v := range counters {
		if label, ok := strings.CutPrefix(name, "migrations."); ok {
			labels[label] = v
		}
	}
	mig := migrationsByBalancer(labels)
	res.layer["sim.migrations"] = mig[""] / n
	res.layer["linuxlb.migrations"] = mig["linuxlb"] / n
	res.layer["speedbal.migrations"] = mig["speedbal"] / n
	return res
}

// migrationsByBalancer sums migration counts by label ("linuxlb",
// "speedbal-swap", ...) into counts by the balancer a label belongs to;
// the "" key holds the total.
func migrationsByBalancer(labels map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for label, v := range labels {
		bal, _, _ := strings.Cut(label, "-")
		out[bal] += v
		out[""] += v
	}
	return out
}
