// Package difftest is the differential equivalence harness for the
// sharded simulator: it runs the same workload through the legacy
// single-queue engine and the sharded engine (internal/eventq.Sharded +
// sim parallel lookahead windows) and proves every deterministic output
// channel byte-identical.
//
// The sharded refactor is the riskiest change the repo has taken — a
// merge-order slip or a stale clock read would not crash, it would
// silently skew result tables. The defence is differential: the legacy
// engine is the oracle, and three output channels are compared
// byte-for-byte:
//
//   - rendered result tables (the exact bytes `lbos run` prints),
//   - the Chrome trace-event JSON stream,
//   - the aggregated metrics snapshot (rendered through the same table
//     path `lbos run -metrics` uses).
//
// Two test families use the harness: an experiment matrix running every
// registered driver the evaluation depends on at shard counts
// {1, 2, 4, sockets} × Parallelism {1, 8} (diff_test.go), and a seeded
// property-based generator drawing random topologies, workloads and
// perturbation configs that cross-checks the engines on machine-state
// fingerprints and the physical invariant suite (prop_test.go). A third,
// golden_test.go, compares fingerprints across commits instead: it pins
// committed digests of contention-heavy runs.
package difftest

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Settings selects one engine configuration for a differential run.
type Settings struct {
	// Shards is exp.Context.Shards: 0/1 is the legacy single queue,
	// larger values shard per socket (clamped to the socket count).
	Shards int
	// ShardParallel opens conservative lookahead windows (parallel shard
	// goroutines) where the workload's shard scope allows it.
	ShardParallel bool
	// Parallelism is the experiment Runner's worker count (0 =
	// GOMAXPROCS); the grid level, orthogonal to the engine level.
	Parallelism int
	// Bare runs without trace or metrics sinks, exactly like a plain
	// `lbos run`. Sinks block parallel lookahead windows, so only the
	// bare configuration reaches the window-eligibility path inside an
	// experiment — the configuration where a stop-on-completion hook
	// once fired inside a window and crashed the run. Bare captures
	// compare tables only.
	Bare bool
}

// String names the configuration in failure messages.
func (s Settings) String() string {
	return fmt.Sprintf("shards=%d shardpar=%v parallel=%d", s.Shards, s.ShardParallel, s.Parallelism)
}

// Capture holds every deterministic output channel of one experiment
// run. Two captures from equivalent engines must be equal field by
// field, byte for byte.
type Capture struct {
	// Tables is the concatenation of the experiment's rendered tables.
	Tables string
	// Trace is the Chrome trace-event JSON document.
	Trace []byte
	// Metrics is the aggregated metrics snapshot rendered as tables —
	// rendering makes the comparison a byte comparison and the failure
	// output human-readable.
	Metrics string
}

// RunExperiment executes the registered experiment driver id with every
// output channel attached and captures the results. reps/scale/seed pin
// the workload; s picks the engine.
func RunExperiment(id string, reps, scale int, seed uint64, s Settings) (Capture, error) {
	e, err := exp.ByID(id)
	if err != nil {
		return Capture{}, err
	}
	var traceBuf bytes.Buffer
	ctx := &exp.Context{
		Reps: reps, Scale: scale, Seed: seed,
		Parallelism:   s.Parallelism,
		Shards:        s.Shards,
		ShardParallel: s.ShardParallel,
	}
	if !s.Bare {
		ctx.Trace = exp.NewTraceSink(&traceBuf, 0)
		ctx.Metrics = metrics.NewAggregate()
	}
	var tables strings.Builder
	for _, t := range e.Run(ctx) {
		t.Render(&tables)
	}
	if s.Bare {
		return Capture{Tables: tables.String()}, nil
	}
	if err := ctx.Trace.Close(); err != nil {
		return Capture{}, fmt.Errorf("difftest: closing trace: %w", err)
	}
	var ms strings.Builder
	for _, t := range exp.MetricsTables(ctx.Metrics.Snapshot()) {
		t.Render(&ms)
	}
	return Capture{Tables: tables.String(), Trace: traceBuf.Bytes(), Metrics: ms.String()}, nil
}

// Diff compares two captures and describes the first divergence, or
// returns "" when they are byte-identical.
func Diff(want, got Capture) string {
	if want.Tables != got.Tables {
		return "tables differ:\n" + firstDivergence(want.Tables, got.Tables)
	}
	if !bytes.Equal(want.Trace, got.Trace) {
		return "trace bytes differ:\n" + firstDivergence(string(want.Trace), string(got.Trace))
	}
	if want.Metrics != got.Metrics {
		return "metrics differ:\n" + firstDivergence(want.Metrics, got.Metrics)
	}
	return ""
}

// firstDivergence renders the first differing line of two outputs with
// a little context — enough to see which cell or event diverged without
// dumping both documents.
func firstDivergence(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d lines, got %d", len(wl), len(gl))
}

// Fingerprint summarises the complete observable end state of a machine
// — clock, counters, every task's accounting, every core's time split —
// as a string two equivalent engines must reproduce byte-identically.
// It is the machine-level analogue of Capture for workloads driven
// below the experiment harness (the property-based cross-checks).
func Fingerprint(m *sim.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d events=%d cs=%d wake=%d mig=%d live=%d\n",
		m.Now(), m.Stats.Events, m.Stats.ContextSwitches, m.Stats.Wakeups,
		m.Stats.TotalMigrations(), m.LiveTasks())
	for _, t := range m.Tasks() {
		fmt.Fprintf(&b, "task %d %s exec=%d work=%.9g mig=%d fin=%d core=%d st=%v\n",
			t.ID, t.Name, t.ExecTime, t.WorkDone, t.Migrations, t.FinishedAt, t.CoreID, t.State)
	}
	for _, c := range m.Cores {
		fmt.Fprintf(&b, "core %d busy=%d idle=%d stolen=%d\n",
			c.ID(), c.BusyTime, c.IdleTime(), c.StolenTime)
	}
	return b.String()
}
