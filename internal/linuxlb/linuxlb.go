// Package linuxlb models the Linux 2.6.28 scheduling-domain load
// balancer — the paper's LOAD baseline and the second level (scheduling
// in space) of the two-level design described in §2.
//
// The model reproduces the behaviours the paper's analysis rests on:
//
//   - Load is queue length (weighted by nice): threads that sched_yield
//     still count; threads that sleep do not.
//   - Busy-interval balancing compares decayed per-tick load averages
//     (rq->cpu_load[], the kernel's source_load/target_load pair), so a
//     high-priority daemon that wakes for a few hundred µs at a time
//     still raises its core's apparent load for many ticks after — the
//     mechanism by which the balancer chases short-lived kernel
//     activity (§6.4). New-idle balancing uses instantaneous load
//     (load index 0), as SD_BALANCE_NEWIDLE does.
//   - Balancing proceeds up a domain hierarchy, each level with its own
//     busy/idle intervals and imbalance percentage.
//   - Imbalance uses integer task-count arithmetic: a 3-vs-2 (or 2-vs-1)
//     split is left alone, which is precisely why queue-length balancing
//     caps an oversubscribed SPMD application at the speed of its
//     slowest thread.
//   - The running task is never pulled; cache-hot tasks (ran within
//     ~5 ms) are resisted until repeated failures escalate, and as a
//     last resort the migration thread performs an active push.
//   - New-idle balancing pulls immediately when a core empties.
//   - Fork placement chooses the idlest core using per-tick-stale load
//     snapshots, so simultaneously forked threads clump (§2 footnote 1).
package linuxlb

import (
	"math"
	"time"

	"repro/internal/cpuset"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Config tunes the balancer.
type Config struct {
	// Tick is the scheduler tick driving periodic balancing and load
	// snapshots (10 ms on a 100 Hz server kernel).
	Tick time.Duration
	// CacheHot is the recency window within which a task is considered
	// cache-hot and resisted (≈5 ms, §2).
	CacheHot time.Duration
	// MaxFailures is how many failed attempts at a level before
	// cache-hot tasks are migrated anyway (typically between one and
	// two, §2).
	MaxFailures int
	// ActiveBalance enables the migration-thread push of the running
	// task after even cache-hot migration fails.
	ActiveBalance bool
	// StalePlacement makes fork placement use tick-stale load
	// snapshots (the realistic default); accurate placement is an
	// ablation.
	StalePlacement bool
	// Domain restricts the balancer to a core subset: only domain cores
	// tick, balance, and exchange tasks, and sched groups are clipped to
	// the domain — one Balancer instance per socket/shard models
	// isolated scheduling domains (cpusets with sched_load_balance
	// partitioning). Empty means the whole machine. When the domain is
	// contained in one simulation shard, the per-core tick timers ride
	// the shard queues, so balancing no longer bounds conservative
	// lookahead and runs inside parallel windows. A domain-restricted
	// instance does not install itself as the fork placer (placement is
	// machine-global); StalePlacement is ignored.
	Domain cpuset.Set
}

// DefaultConfig returns the 2.6.28-like defaults.
func DefaultConfig() Config {
	return Config{
		Tick:           10 * time.Millisecond,
		CacheHot:       5 * time.Millisecond,
		MaxFailures:    2,
		ActiveBalance:  true,
		StalePlacement: true,
	}
}

const nice0Weight = 1024

// Balancer is the per-machine Linux load balancer actor.
type Balancer struct {
	cfg Config
	m   *sim.Machine
	rng *xrand.RNG

	// domain is the resolved balancing scope (Config.Domain or all
	// cores); cores holds state for domain members only (nil elsewhere).
	domain cpuset.Set
	cores  []*coreState

	// Pulls / Pushes / ActivePushes count balancing actions for tests
	// and experiment reporting.
	Pulls, NewIdlePulls, ActivePushes int
}

type coreState struct {
	// nextBalance is the next balancing time per domain level.
	nextBalance []int64
	// failed counts consecutive balance failures per level.
	failed []int
	// staleLoad is the queue length snapshot from the last tick, used
	// by fork placement.
	staleLoad int64
	// cpuLoad is the decayed per-tick load average (rq->cpu_load[] at
	// the busy index): cpuLoad = (7*cpuLoad + instantaneous)/8 each
	// tick. Busy-interval balancing reads load through this average so
	// short bursts of high-weight activity stay visible between ticks.
	cpuLoad int64
	// levels[li] is the precomputed sched-group structure this core
	// compares when balancing at domain level li. The topology is static,
	// so the groups, their core lists and the level span are derived once
	// at Start instead of on every tick.
	levels []levelGroups
	// tick is the core's reusable scheduler-tick timer.
	tick *sim.Timer
	// pull is moveTasks' queue-scan state while this core is the
	// destination. It lives per core, not per balancer, because
	// new-idle passes on different shards run concurrently inside
	// parallel windows; a core is only ever balanced on its own shard.
	pull pullScan
}

// pullScan is the state of one moveTasks walk over a source queue. Its
// visit func is consider bound once at Start, so the EachQueued
// interface call gets the same func value every pass instead of a
// closure that escapes to the heap.
type pullScan struct {
	dst    int
	amount int64
	moved  int
	// hotAfter is the LastRanAt bound past which a task counts as
	// cache-hot (math.MaxInt64 when hotness does not matter: a forced
	// pull, or an SMT sibling sharing the caches).
	hotAfter int64
	pick     *task.Task
	visit    func(t *task.Task) bool
}

// consider is the EachQueued visitor: it picks the first queued task
// that may move to dst, fits the remaining amount (the first pick may
// overshoot) and is not cache-hot, and stops the walk there.
func (p *pullScan) consider(t *task.Task) bool {
	if !t.Affinity.Has(p.dst) {
		return true
	}
	if t.Sched.Weight > p.amount && p.moved > 0 {
		return true
	}
	if t.LastRanAt > p.hotAfter {
		return true
	}
	p.pick = t
	return false
}

// levelGroups caches one (core, level) balancing view.
type levelGroups struct {
	// groups are the child groups compared at the level, in the same
	// deterministic order subgroup discovery yields them.
	groups []groupInfo
	// local is the index in groups of the group containing the core, or
	// -1 if none does.
	local int
	// span lists the core IDs of the level's whole span (the
	// active-balance push targets).
	span []int
}

// groupInfo is one sched group with its core list materialised.
type groupInfo struct {
	set   cpuset.Set
	cores []int
}

// New creates the balancer with the given configuration.
func New(cfg Config) *Balancer { return &Balancer{cfg: cfg} }

// Default creates the balancer with DefaultConfig.
func Default() *Balancer { return New(DefaultConfig()) }

// Start implements sim.Actor.
func (b *Balancer) Start(m *sim.Machine) {
	b.m = m
	b.rng = m.RNG()
	b.domain = b.cfg.Domain
	if b.domain.Empty() {
		b.domain = m.Topo.AllCores()
	}
	// A tick may ride the core's shard queue — and so run inside
	// parallel windows — only when everything the tick can read or move
	// (the whole domain) lives in one shard.
	shardLocal := true
	shard := -1
	b.domain.ForEach(func(id int) bool {
		if shard < 0 {
			shard = m.ShardOf(id)
		} else if m.ShardOf(id) != shard {
			shardLocal = false
			return false
		}
		return true
	})
	n := len(m.Cores)
	b.cores = make([]*coreState, n)
	for i := 0; i < n; i++ {
		if !b.domain.Has(i) {
			continue
		}
		cs := &coreState{
			nextBalance: make([]int64, len(m.Topo.Levels)),
			failed:      make([]int, len(m.Topo.Levels)),
			levels:      make([]levelGroups, len(m.Topo.Levels)),
		}
		for li, l := range m.Topo.Levels {
			cs.nextBalance[li] = int64(l.BusyInterval)
			cs.levels[li] = b.buildLevel(i, li)
		}
		cs.pull.visit = cs.pull.consider
		b.cores[i] = cs
		// Stagger ticks across cores as real timer interrupts are.
		off := b.rng.Jitter(int64(b.cfg.Tick))
		core := m.Cores[i]
		fn := func(now int64) {
			b.tick(core, now)
			cs.tick.Schedule(now + int64(b.cfg.Tick))
		}
		if shardLocal {
			cs.tick = m.NewCoreTimer(i, fn)
		} else {
			cs.tick = m.NewTimer(fn)
		}
		cs.tick.Schedule(m.Now() + off)
	}
	if b.cfg.StalePlacement && b.cfg.Domain.Empty() {
		m.SetPlacer(b)
	}
	m.OnIdle(b.newIdle)
}

// buildLevel materialises the sched groups core id compares at level li:
// the level-(li−1) groups inside the level-li span, or per-core
// singletons at the innermost level. This mirrors the kernel structure
// where a domain's sched_groups are its child domains.
func (b *Balancer) buildLevel(id, li int) levelGroups {
	span := b.m.Topo.Levels[li].GroupOf(id).Intersect(b.domain)
	lg := levelGroups{local: -1, span: span.Cores()}
	add := func(g cpuset.Set) {
		if g.Has(id) {
			lg.local = len(lg.groups)
		}
		lg.groups = append(lg.groups, groupInfo{set: g, cores: g.Cores()})
	}
	if li == 0 {
		for _, c := range span.Cores() {
			add(cpuset.Of(c))
		}
		return lg
	}
	for _, g := range b.m.Topo.Levels[li-1].Groups {
		if g = g.Intersect(span); !g.Empty() {
			add(g)
		}
	}
	return lg
}

// tick is the per-core scheduler tick: refresh the load snapshot and run
// due domain-level balancing.
func (b *Balancer) tick(c *sim.Core, now int64) {
	cs := b.cores[c.ID()]
	if !c.Online() {
		// A hot-unplugged CPU takes no timer interrupts: skip the
		// balancing pass (and zero the placement snapshot so forks do
		// not clump onto the dead core) but keep the timer alive so the
		// tick resumes when the core returns.
		cs.staleLoad = 0
		cs.cpuLoad = 0
		return
	}
	cs.staleLoad = c.Scheduler().WeightedLoad()
	cs.cpuLoad = (7*cs.cpuLoad + cs.staleLoad) / 8
	idle := c.Idle()
	for li := range b.m.Topo.Levels {
		if now < cs.nextBalance[li] {
			continue
		}
		l := &b.m.Topo.Levels[li]
		if b.shouldBalance(c, li) {
			b.balanceLevel(c, li, false)
		}
		iv := l.BusyInterval
		if idle {
			iv = l.IdleInterval
		}
		cs.nextBalance[li] = now + int64(iv)
	}
}

// shouldBalance gates balancing at a level to one core per child group:
// the first idle core of the local subgroup, or its first core when none
// is idle (Linux's should_we_balance).
func (b *Balancer) shouldBalance(c *sim.Core, li int) bool {
	lg := &b.cores[c.ID()].levels[li]
	if lg.local < 0 {
		return true
	}
	g := &lg.groups[lg.local]
	first := -1
	for _, id := range g.cores {
		o := b.m.Cores[id]
		if !o.Online() {
			// An offline core neither ticks nor balances; it must not
			// hold the group's balancing slot or the whole group stops
			// balancing until the core returns.
			continue
		}
		if first < 0 {
			first = id
		}
		if o.Idle() {
			return id == c.ID()
		}
	}
	return first == c.ID()
}

// balanceLevel runs one load_balance pass pulling toward core c at
// domain level li. newIdle relaxes it to "grab one task from any queue
// with more than one".
func (b *Balancer) balanceLevel(c *sim.Core, li int, newIdle bool) bool {
	cs := b.cores[c.ID()]
	lg := &cs.levels[li]

	tr := b.m.Tracing()
	label := "linuxlb"
	if newIdle {
		label = "linuxlb-newidle"
	}
	if tr {
		b.m.Emit(trace.Event{Kind: trace.KindBalanceWake, Core: c.ID(), Label: label, N: li})
	}
	imbalance, busiestGroup := b.imbalance(lg, int64(b.m.Topo.Levels[li].ImbalancePct), newIdle)
	if imbalance <= 0 {
		cs.failed[li] = 0
		if tr {
			b.traceSkip(c.ID(), label, "balanced")
		}
		return false
	}
	busiest := b.findBusiestQueue(c, busiestGroup, newIdle)
	if busiest == nil {
		cs.failed[li] = 0
		if tr {
			b.traceSkip(c.ID(), label, "no-busiest-queue")
		}
		return false
	}
	moved := b.moveTasks(busiest, c, imbalance, cs.failed[li] > b.cfg.MaxFailures)
	if moved > 0 {
		cs.failed[li] = 0
		if newIdle {
			b.NewIdlePulls++
		} else {
			b.Pulls++
		}
		return true
	}
	if tr {
		b.traceSkip(c.ID(), label, "all-candidates-resisted")
	}
	if newIdle {
		return false
	}
	cs.failed[li]++
	if cs.failed[li] > b.cfg.MaxFailures+1 && b.cfg.ActiveBalance {
		// Wake the migration thread: push the busiest core's running
		// task to an idle core in the domain (active_load_balance).
		b.activeBalance(busiest, li)
		cs.failed[li] = 0
	}
	return false
}

// traceSkip records a balancing pass that moved nothing.
func (b *Balancer) traceSkip(core int, label, reason string) {
	b.m.Emit(trace.Event{Kind: trace.KindBalanceSkip, Core: core, Src: core,
		Label: label, Reason: reason})
}

// sourceLoad is the kernel's source_load: the decayed load average
// biased upward by the instantaneous load, so a pull source is never
// underestimated. New-idle balancing uses load index 0 — instantaneous.
func (b *Balancer) sourceLoad(id int, newIdle bool) int64 {
	inst := b.m.Cores[id].Scheduler().WeightedLoad()
	if newIdle {
		return inst
	}
	if avg := b.cores[id].cpuLoad; avg > inst {
		return avg
	}
	return inst
}

// targetLoad is the kernel's target_load: biased downward, so the
// pulling side is never overestimated.
func (b *Balancer) targetLoad(id int, newIdle bool) int64 {
	inst := b.m.Cores[id].Scheduler().WeightedLoad()
	if newIdle {
		return inst
	}
	if avg := b.cores[id].cpuLoad; avg < inst {
		return avg
	}
	return inst
}

// groupLoad sums the group's core loads: target-biased for the local
// group, source-biased for remote ones.
func (b *Balancer) groupLoad(cores []int, local, newIdle bool) (load int64, ncores int64) {
	for _, id := range cores {
		if local {
			load += b.targetLoad(id, newIdle)
		} else {
			load += b.sourceLoad(id, newIdle)
		}
		ncores++
	}
	return load, ncores
}

// imbalance computes the load amount (in weight units) that should move
// into the local subgroup and the busiest subgroup it should come from
// (nil when no remote group qualifies). This is the integer arithmetic
// at the core of the paper's critique: for equal-weight tasks split
// 3-vs-2 it yields 0.
func (b *Balancer) imbalance(lg *levelGroups, imbPct int64, newIdle bool) (int64, *groupInfo) {
	var localAvg, maxAvg int64
	var totalLoad, totalN int64
	var busiest *groupInfo
	for gi := range lg.groups {
		g := &lg.groups[gi]
		load, n := b.groupLoad(g.cores, gi == lg.local, newIdle)
		totalLoad += load
		totalN += n
		if gi == lg.local {
			localAvg = load / n
			continue
		}
		if a := load / n; a > maxAvg {
			maxAvg = a
			busiest = g
		}
	}
	if busiest == nil || totalN == 0 {
		return 0, busiest
	}
	if newIdle {
		if maxAvg > localAvg {
			return nice0Weight, busiest
		}
		return 0, busiest
	}
	domainAvg := totalLoad / totalN
	// Busiest group must exceed the local one by the imbalance pct.
	if maxAvg*100 <= localAvg*imbPct {
		return 0, busiest
	}
	if maxAvg <= domainAvg {
		return 0, busiest
	}
	imb := maxAvg - domainAvg
	if d := domainAvg - localAvg; d < imb {
		imb = d
	}
	if imb < nice0Weight {
		// fix_small_imbalance: move a single task only when the gap is
		// at least two tasks' worth — moving one out of a 3-vs-2 split
		// would not improve the balance.
		if maxAvg-localAvg >= 2*nice0Weight {
			return nice0Weight, busiest
		}
		// An entirely idle local group may always take one task
		// (CPU_IDLE balancing); when the only candidate is the remote
		// core's running task, the repeated failures escalate to the
		// active-balance push.
		if localAvg == 0 {
			return nice0Weight, busiest
		}
		return 0, busiest
	}
	return imb, busiest
}

// findBusiestQueue returns the most loaded core of the busiest subgroup.
func (b *Balancer) findBusiestQueue(c *sim.Core, group *groupInfo, newIdle bool) *sim.Core {
	var busiest *sim.Core
	var maxLoad int64
	for _, id := range group.cores {
		if id == c.ID() {
			continue
		}
		o := b.m.Cores[id]
		if !o.Online() {
			continue
		}
		load := o.Scheduler().WeightedLoad()
		if newIdle && o.NrRunnable() < 2 {
			continue
		}
		if load > maxLoad {
			busiest, maxLoad = o, load
		}
	}
	return busiest
}

// moveTasks pulls up to `amount` of weighted load from src to dst,
// skipping the running task and (unless force) cache-hot tasks and
// respecting affinity. Returns the number of tasks moved.
func (b *Balancer) moveTasks(src, dst *sim.Core, amount int64, force bool) int {
	p := &b.cores[dst.ID()].pull
	p.dst, p.amount, p.moved = dst.ID(), amount, 0
	p.hotAfter = math.MaxInt64
	if !force && b.m.Topo.Distance(src.ID(), dst.ID()) > topo.DistSMT {
		// The destination core's clock, not Machine.Now: inside a
		// parallel window the machine clock lags the shard clock this
		// pass runs on (src and dst share a shard whenever a window is
		// open).
		p.hotAfter = dst.Now() - int64(b.cfg.CacheHot)
	}
	for p.amount > 0 {
		p.pick = nil
		src.Scheduler().EachQueued(p.visit)
		pick := p.pick
		if pick == nil {
			break
		}
		p.amount -= pick.Sched.Weight
		b.m.Migrate(pick, dst.ID(), "linuxlb")
		p.moved++
	}
	return p.moved
}

// activeBalance pushes the running task of the busiest core to the
// least loaded core in the domain span, as the kernel migration thread
// does when normal balancing keeps failing.
func (b *Balancer) activeBalance(busiest *sim.Core, li int) {
	t := busiest.Current()
	if t == nil {
		return
	}
	span := b.cores[busiest.ID()].levels[li].span
	var target *sim.Core
	var minLoad int64
	for _, id := range span {
		if id == busiest.ID() || !t.Affinity.Has(id) {
			continue
		}
		o := b.m.Cores[id]
		if !o.Online() {
			continue
		}
		load := o.Scheduler().WeightedLoad()
		if target == nil || load < minLoad {
			target, minLoad = o, load
		}
	}
	if target == nil || minLoad+2*nice0Weight > b.sourceLoad(busiest.ID(), false) {
		return
	}
	b.ActivePushes++
	b.m.MigrateNow(t, target.ID(), "linuxlb-active")
}

// newIdle is the SD_BALANCE_NEWIDLE hook: a core that just emptied pulls
// one task, walking levels innermost first.
func (b *Balancer) newIdle(c *sim.Core) {
	if !b.domain.Has(c.ID()) {
		return
	}
	for li := range b.m.Topo.Levels {
		l := &b.m.Topo.Levels[li]
		if !l.NewIdle {
			continue
		}
		if b.balanceLevel(c, li, true) {
			return
		}
	}
}

// Place implements sim.Placer using the tick-stale load snapshots: the
// idlest allowed core as of the last tick. Threads forked between two
// ticks all see the same snapshot and clump onto the same "idle" cores —
// the start-up behaviour the paper's §2 footnote describes.
func (b *Balancer) Place(m *sim.Machine, t *task.Task) int {
	best, bestLoad := -1, int64(0)
	for _, c := range m.Cores {
		if !c.Online() || !t.Affinity.Has(c.ID()) || b.cores[c.ID()] == nil {
			continue
		}
		l := b.cores[c.ID()].staleLoad
		if best == -1 || l < bestLoad {
			best, bestLoad = c.ID(), l
		}
	}
	if best == -1 {
		// No allowed core is online (a pinned fork racing a hotplug):
		// widen the mask like the kernel's select_fallback_rq and take
		// the idlest online core.
		t.Affinity = m.Topo.AllCores()
		for _, c := range m.Cores {
			if !c.Online() || b.cores[c.ID()] == nil {
				continue
			}
			l := b.cores[c.ID()].staleLoad
			if best == -1 || l < bestLoad {
				best, bestLoad = c.ID(), l
			}
		}
	}
	return best
}
