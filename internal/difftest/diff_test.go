package difftest

import (
	"encoding/json"
	"testing"
)

// drivers is the experiment sample the equivalence matrix runs: the
// core paper figures plus the perturbed drivers (fault injection
// exercises hotplug drains, kthread daemons and frequency steps through
// the sharded merge), the analytic fig1 (no simulated cells — its
// capture must still round-trip the harness identically), and the
// open-system bakeoff (mid-run task admission and departure on every
// engine configuration).
var drivers = []string{
	"fig1", "fig2", "fig3t", "fig5", "abl-jit", "noise-omps", "hotplug-churn",
	"open-bakeoff", "predict-bakeoff",
}

// matrix is the engine grid every driver must traverse without changing
// one output byte: shard counts {1, 2, 4} (4 = the socket count of the
// paper machines, so the "sockets" point coincides), grid parallelism
// {1, 8}, and lookahead windows on and off.
var matrix = []Settings{
	{Shards: 1, Parallelism: 1},
	{Shards: 2, Parallelism: 1},
	{Shards: 4, Parallelism: 1},
	{Shards: 4, Parallelism: 8},
	{Shards: 2, ShardParallel: true, Parallelism: 1},
	{Shards: 4, ShardParallel: true, Parallelism: 8},
}

// raceMatrix is the grid under the race detector, which slows the
// simulator ~10× and would push the package past the default test
// timeout on the full matrix: the sequential 4-shard merge and one
// parallel-window configuration with grid parallelism — the shard
// workers are what the detector is there to watch. Every non-race
// build runs the full matrix.
var raceMatrix = []Settings{
	{Shards: 4, Parallelism: 1},
	{Shards: 4, ShardParallel: true, Parallelism: 8},
}

// engineMatrix returns the grid this build runs: matrix, or raceMatrix
// under the race detector.
func engineMatrix() []Settings {
	if raceEnabled {
		return raceMatrix
	}
	return matrix
}

// TestEngineEquivalence is the tentpole guarantee: for every driver the
// sharded engine reproduces the legacy single-queue engine's tables,
// trace bytes and metrics byte-identically at every shard count,
// parallelism level and window setting.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix skipped in short mode")
	}
	for _, id := range drivers {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			legacy, err := RunExperiment(id, 2, 32, 20100109, Settings{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if legacy.Tables == "" {
				t.Fatal("legacy engine rendered no tables")
			}
			if !json.Valid(legacy.Trace) {
				t.Fatalf("legacy trace is not valid JSON:\n%.200s", legacy.Trace)
			}
			for _, s := range engineMatrix() {
				got, err := RunExperiment(id, 2, 32, 20100109, s)
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if d := Diff(legacy, got); d != "" {
					t.Errorf("%v diverges from the single-queue engine:\n%s", s, d)
				}
			}
		})
	}
}

// TestEngineEquivalenceBare runs without trace or metrics sinks —
// exactly what a plain `lbos run` does. Sinks block parallel lookahead
// windows, so the matrix above never reaches the window-eligibility
// path inside an experiment; this bare variant does, and pins the
// regression where a scale-1 socket-contained cell opened a window and
// the experiment's stop-on-completion hook panicked inside it.
func TestEngineEquivalenceBare(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix skipped in short mode")
	}
	for _, id := range []string{"fig5", "noise-omps"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			legacy, err := RunExperiment(id, 2, 1, 20100109, Settings{Parallelism: 1, Bare: true})
			if err != nil {
				t.Fatal(err)
			}
			bare := []Settings{
				{Shards: 4, Parallelism: 1, Bare: true},
				{Shards: 4, ShardParallel: true, Parallelism: 1, Bare: true},
				{Shards: 4, ShardParallel: true, Parallelism: 8, Bare: true},
			}
			if raceEnabled {
				bare = bare[2:] // the window config with grid parallelism
			}
			for _, s := range bare {
				got, err := RunExperiment(id, 2, 1, 20100109, s)
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if d := Diff(legacy, got); d != "" {
					t.Errorf("%v diverges from the single-queue engine:\n%s", s, d)
				}
			}
		})
	}
}

// TestEngineEquivalenceAcrossSeeds guards the matrix itself: a sharded
// run must track the legacy engine for other seeds too, and different
// seeds must produce different output (otherwise the comparison above
// proves nothing).
func TestEngineEquivalenceAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix skipped in short mode")
	}
	const id = "abl-jit" // seed-sensitive: tabulates run-time variation
	s := Settings{Shards: 4, ShardParallel: true, Parallelism: 8}
	tables := map[string]bool{}
	for _, seed := range []uint64{1, 2, 20100109} {
		legacy, err := RunExperiment(id, 2, 32, seed, Settings{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := RunExperiment(id, 2, 32, seed, s)
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(legacy, sharded); d != "" {
			t.Errorf("seed %d: engines diverge:\n%s", seed, d)
		}
		tables[legacy.Tables] = true
	}
	if len(tables) < 2 {
		t.Error("every seed rendered identical tables — the equivalence comparison has no power")
	}
}
