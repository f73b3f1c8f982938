package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/linuxlb"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/topo"
)

// The fabric-1k span sizes, in simulated time. The warm-up belongs to
// setup; one op advances the machine by fabricSpan, about 0.6 s of host
// time on a 2-core x86 host, so a 10 s run times about fifteen ops.
const (
	fabricWarmup = 10 * time.Millisecond
	fabricSpan   = 10 * time.Millisecond
)

// fabricShards is the event-shard count: one per socket.
const fabricShards = 16

// newFabric assembles the inputs of perfbench's fab1k case: a 16-socket
// × 64-core fabric, one pinned 64-thread UPC-sleep app (MemIntensity
// 0.4) per socket and a Linux balancer per socket domain. shards is
// the event-shard count; parallel lets shard-confined spans run in
// parallel windows. wrap, when not nil, decorates the CFS factory.
func newFabric(seed uint64, shards int, parallel bool, wrap func(func(int) sim.Scheduler) func(int) sim.Scheduler) *sim.Machine {
	tp := topo.Fabric(16, 64)
	factory := cfs.Factory()
	if wrap != nil {
		factory = wrap(factory)
	}
	m := sim.New(tp, sim.Config{Seed: seed, NewScheduler: factory,
		Shards: shards, ShardParallel: parallel})
	perSocket := make([]cpuset.Set, 16)
	for _, ci := range tp.Cores {
		perSocket[ci.Socket] = perSocket[ci.Socket].Add(ci.ID)
	}
	for s, set := range perSocket {
		lcfg := linuxlb.DefaultConfig()
		lcfg.Domain = set
		m.AddActor(linuxlb.New(lcfg))
		app := spmd.Build(m, spmd.Spec{
			Name:             fmt.Sprintf("sock%02d", s),
			Threads:          set.Count(),
			Iterations:       1 << 30,
			WorkPerIteration: float64(300 * time.Microsecond),
			WorkJitter:       0.3,
			MemIntensity:     0.4,
			RSSBytes:         1 << 20,
			Model:            spmd.UPCSleep(),
			Affinity:         set,
		})
		app.StartPinned()
	}
	return m
}

// fingerprint is the SHA-256 of a machine's observable state: the
// simulated clock, the Stats counters (migrations by label, in label
// order) and every task's state, core, exec time and work done.
func fingerprint(m *sim.Machine) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(m.Now()))
	put(uint64(m.Stats.Events))
	put(uint64(m.Stats.ContextSwitches))
	put(uint64(m.Stats.Wakeups))
	labels := make([]string, 0, len(m.Stats.Migrations))
	for l := range m.Stats.Migrations {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		h.Write([]byte(l))
		put(uint64(m.Stats.Migrations[l]))
	}
	for _, t := range m.Tasks() {
		put(uint64(t.ID))
		put(uint64(t.State))
		put(uint64(t.CoreID))
		put(uint64(t.ExecTime))
		put(math.Float64bits(t.WorkDone))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runFabric is the fabric-1k workload: a closed loop whose op advances
// the fab1k machine (16 parallel-window shards) by fabricSpan. Each op's
// output is the machine fingerprint at the end of its span. After the
// timed ops the first op is replayed on a single event queue, which must
// reach the same fingerprint, and at least half of the timed events
// must have run inside parallel windows, or the run measured the serial
// path.
func runFabric(cfg runConfig) *runResult {
	res := &runResult{layer: map[string]float64{}}
	seed := deriveSeed(cfg.seed, "fabric-1k")
	var (
		m      *sim.Machine
		scheds []*timedScheduler
	)
	var wrap func(func(int) sim.Scheduler) func(int) sim.Scheduler
	if cfg.traced {
		wrap = func(f func(int) sim.Scheduler) func(int) sim.Scheduler {
			scheds = scheds[:0]
			return timedFactory(f, &scheds)
		}
	}
	err := timeSetups(res, func() error {
		m = newFabric(seed, fabricShards, true, wrap)
		m.RunFor(fabricWarmup)
		return nil
	})
	if err != nil {
		res.fail("setup: %v", err)
		return res
	}

	events0, windows0, windowEvents0 := m.Stats.Events, m.Windows(), m.WindowEvents()
	switches0, wakeups0 := m.Stats.ContextSwitches, m.Stats.Wakeups
	migrations0 := map[string]int{}
	for l, v := range m.Stats.Migrations {
		migrations0[l] = v
	}
	for _, s := range scheds {
		*s = timedScheduler{inner: s.inner} // count the timed ops only
	}
	pendingMax := 0
	closedLoop(cfg, res, func(int) (string, error) {
		m.RunFor(fabricSpan)
		pendingMax = max(pendingMax, m.PendingEvents())
		return fingerprint(m), nil
	})

	ref, err := safeOp(func() (string, error) {
		serial := newFabric(seed, 1, false, nil)
		serial.RunFor(fabricWarmup + fabricSpan)
		return fingerprint(serial), nil
	})
	switch {
	case err != nil:
		res.fail("single-queue replay: %v", err)
	case len(res.digests) > 0 && res.digests[0] != ref:
		res.fail("op 0 fingerprint %.12s, single-queue replay %.12s", res.digests[0], ref)
	}

	n := float64(res.ops())
	events := float64(m.Stats.Events - events0)
	windowFrac := float64(m.WindowEvents()-windowEvents0) / events
	if !(windowFrac >= 0.5) {
		res.fail("only %.2f of the timed events ran in parallel windows", windowFrac)
	}
	res.layer["sim.events"] = events / n
	res.layer["sim.windows"] = float64(m.Windows()-windows0) / n
	res.layer["sim.window_frac"] = windowFrac
	res.layer["eventq.pending_max"] = float64(pendingMax)
	res.layer["sim.context_switches"] = float64(m.Stats.ContextSwitches-switches0) / n
	res.layer["sim.wakeups"] = float64(m.Stats.Wakeups-wakeups0) / n
	labels := map[string]float64{}
	for l, v := range m.Stats.Migrations {
		labels[l] = float64(v - migrations0[l])
	}
	byBal := migrationsByBalancer(labels)
	res.layer["sim.migrations"] = byBal[""] / n
	res.layer["linuxlb.migrations"] = byBal["linuxlb"] / n
	res.layer["speedbal.migrations"] = byBal["speedbal"] / n
	if cfg.traced {
		calls, medianNs := callStats(scheds)
		res.layer["cfs.calls"] = float64(calls) / n
		res.layer["cfs.call_ns"] = medianNs
	}
	return res
}
