package sim_test

import (
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/topo"
)

// A domain with no memory-intensive task never sums its demand.
func TestDemandSumsZeroWithoutMemoryTasks(t *testing.T) {
	m := sim.New(topo.Fabric(1, 64), sim.Config{Seed: 1, NewScheduler: cfs.Factory()})
	spmd.Build(m, spmd.Spec{
		Name: "cpu", Threads: len(m.Cores), Iterations: 1 << 30,
		WorkPerIteration: float64(300 * time.Microsecond), WorkJitter: 0.3,
		Model: spmd.UPCSleep(),
	}).StartPinned()
	m.RunFor(5 * time.Millisecond)
	if m.Stats.Events == 0 {
		t.Fatal("no events: the workload did not run")
	}
	if m.Stats.DemandSums != 0 {
		t.Errorf("%d demand sums with no memory-intensive task, want 0", m.Stats.DemandSums)
	}
}
