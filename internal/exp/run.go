package exp

import (
	"fmt"
	"time"

	"repro/internal/cfs"
	"repro/internal/dwrr"
	"repro/internal/linuxlb"
	"repro/internal/metrics"
	"repro/internal/openload"
	"repro/internal/perturb"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ule"
)

// Strategy names a balancing configuration, matching the labels in the
// paper's figures.
type Strategy string

const (
	// StratPinned statically pins threads round-robin (the paper's
	// PINNED; with threads == cores it is One-per-core).
	StratPinned Strategy = "PINNED"
	// StratLoad is default Linux: CFS per core plus the queue-length
	// load balancer, OS fork placement.
	StratLoad Strategy = "LOAD"
	// StratSpeed is the paper's contribution: Linux plus the user-level
	// speed balancer managing the application.
	StratSpeed Strategy = "SPEED"
	// StratDWRR replaces balancing with Distributed Weighted
	// Round-Robin scheduling.
	StratDWRR Strategy = "DWRR"
	// StratULE is the FreeBSD 7.2 ULE push/pull balancer.
	StratULE Strategy = "FreeBSD"
	// StratCFS is per-core CFS with no balancer at all: fork placement
	// only.
	StratCFS Strategy = "CFS"
	// StratEQUI is CFS with no balancer and every thread pinned where it
	// is admitted: round-robin at start for an app, a fixed round-robin
	// core partition per job for open arrivals (EQUI-style static
	// allocation).
	StratEQUI Strategy = "EQUI"
	// StratSpeedOnly is the speed balancer alone over per-core CFS, with
	// no OS balancer underneath.
	StratSpeedOnly Strategy = "SPEED-only"
)

// RunOpts describes one measurement.
type RunOpts struct {
	// Topo builds the machine (fresh per run).
	Topo func() *topo.Topology
	// Strategy selects the balancing configuration.
	Strategy Strategy
	// Spec is the application (threads, work, barrier model, affinity).
	Spec spmd.Spec
	// Open, when non-nil, replaces the application with a seeded open
	// arrival stream: jobs arrive for Open.Horizon, then the run drains
	// for two more horizons plus 2 s (unless Limit is set). Run sets
	// Open.FixedAlloc exactly for StratEQUI, which pins each job onto a
	// fixed core partition; the speed balancer adopts the jobs by
	// rescanning for openload.Group.
	Open *openload.Config
	// Seed drives all randomness in the run.
	Seed uint64
	// SpeedCfg overrides the speed balancer configuration (ablations).
	SpeedCfg *speedbal.Config
	// LinuxCfg overrides the Linux balancer configuration.
	LinuxCfg *linuxlb.Config
	// Setup installs competing workload on the machine before the app
	// starts (cpu-hog, make -j). May be nil.
	Setup func(m *sim.Machine)
	// Perturb, when active, adds a deterministic fault injector (kernel
	// noise, hotplug, frequency drift, interrupt storms) to the run. The
	// Runner copies Context.Perturb here for cells that leave it inert.
	Perturb perturb.Config
	// Predict enables the speed balancer's anticipatory mode with
	// predict.DefaultConfig when the cell's SpeedCfg does not already
	// configure prediction. The Runner copies Context.Predict here. Only
	// runs with the speed balancer (StratSpeed, StratSpeedOnly) are
	// affected.
	Predict bool
	// Shards and ShardParallel select the sharded simulator engine
	// (sim.Config fields of the same names). The Runner copies the
	// Context values here for cells that leave them zero.
	Shards        int
	ShardParallel bool
	// Limit caps the simulated time (default 2000 s).
	Limit time.Duration
	// Tracer, when non-nil, receives the run's scheduling events. The
	// Runner injects a per-cell ring here when Context.Trace is set.
	Tracer trace.Tracer
	// Metrics, when non-nil, collects the run's counters and
	// distributions. The Runner injects a fresh registry per cell when
	// Context.Metrics is set.
	Metrics *metrics.Registry
}

// RunResult is the outcome of one measurement.
type RunResult struct {
	// Elapsed is the application's wall time (an open run's simulated
	// time reached).
	Elapsed time.Duration
	// Speedup is serial work / elapsed.
	Speedup float64
	// AppMigrations counts migrations of the app's threads.
	AppMigrations int
	// SpeedbalMigrations counts the speed balancer's pulls.
	SpeedbalMigrations int
	// PredictPulls/Hits/Misses are the speed balancer's prediction
	// audit counters (zero when prediction is off).
	PredictPulls, PredictHits, PredictMisses int
	// Stats is the machine's counter snapshot.
	Stats sim.Stats
	// App is the finished application (thread exec times etc.).
	App *spmd.App
	// Machine allows further inspection (app runs only).
	Machine *sim.Machine
	// Truncated reports that the simulated time limit expired before the
	// application finished (Elapsed is then the limit and Speedup 0).
	Truncated bool
	// Jobs lists an open run's completed jobs in completion order, and
	// Admitted and Unfinished count its jobs (all zero for an app run).
	// An open run's result holds no App or Machine, so a grid's finished
	// open cells do not keep their machines live until delivery.
	Jobs                 []openload.Record
	Admitted, Unfinished int
}

// NewMachine builds the machine a strategy runs on: the DWRR scheduler
// for StratDWRR and per-core CFS otherwise, plus the strategy's OS
// balancer (Linux for PINNED, LOAD and SPEED, ULE for FreeBSD, none for
// the others). linux overrides the Linux balancer's configuration (nil
// = defaults). The DWRR global state is returned for its steal count
// (nil for the other strategies).
func NewMachine(tp *topo.Topology, s Strategy, cfg sim.Config, linux *linuxlb.Config) (*sim.Machine, *dwrr.Global) {
	var dwrrG *dwrr.Global
	if s == StratDWRR {
		cfg.NewScheduler, dwrrG = dwrr.NewFactory(dwrr.DefaultConfig())
	} else {
		cfg.NewScheduler = cfs.Factory()
	}
	m := sim.New(tp, cfg)
	switch s {
	case StratPinned, StratLoad, StratSpeed:
		lcfg := linuxlb.DefaultConfig()
		if linux != nil {
			lcfg = *linux
		}
		m.AddActor(linuxlb.New(lcfg))
	case StratULE:
		m.AddActor(ule.Default())
	case StratDWRR, StratCFS, StratEQUI, StratSpeedOnly:
		// DWRR balances via round stealing inside the scheduler; the
		// others run without an OS balancer.
	default:
		panic(fmt.Sprintf("exp: unknown strategy %q", s))
	}
	return m, dwrrG
}

// speedConfig resolves the speed balancer configuration of a run.
func (o *RunOpts) speedConfig() speedbal.Config {
	scfg := speedbal.DefaultConfig()
	if o.SpeedCfg != nil {
		scfg = *o.SpeedCfg
	}
	if o.Predict && !scfg.Predict.Enabled {
		scfg.Predict = predict.DefaultConfig()
	}
	if o.Open != nil && scfg.RescanGroup == "" {
		scfg.RescanGroup = openload.Group
	}
	return scfg
}

// Run executes one measurement.
func Run(o RunOpts) RunResult {
	m, dwrrG := NewMachine(o.Topo(), o.Strategy, sim.Config{Seed: o.Seed,
		Tracer: o.Tracer, Metrics: o.Metrics,
		Shards: o.Shards, ShardParallel: o.ShardParallel}, o.LinuxCfg)

	var sb *speedbal.Balancer
	if o.Strategy == StratSpeed || o.Strategy == StratSpeedOnly {
		sb = speedbal.New(o.speedConfig())
		if o.Open != nil {
			// Open arrivals hand the balancer no threads up front: it
			// adopts jobs by rescan, so it starts right after the OS
			// balancer, ahead of the injector and the generator.
			m.AddActor(sb)
		}
	}

	if o.Perturb.Active() {
		// Added after the balancer so the RNG split order (balancer,
		// injector, app) is fixed regardless of which families are on.
		m.AddActor(perturb.New(o.Perturb))
	}

	if o.Setup != nil {
		o.Setup(m)
	}

	limit := o.Limit
	var app *spmd.App
	var gen *openload.Gen
	if o.Open != nil {
		gcfg := *o.Open
		gcfg.FixedAlloc = o.Strategy == StratEQUI
		gen = openload.New(gcfg)
		m.AddActor(gen)
		if limit == 0 {
			// Past the horizon the backlog drains: a stable system
			// (ρ < 1) empties well inside 2 extra horizons + 2 s, and
			// whatever does not is reported as unfinished rather than
			// silently truncated out of the percentiles.
			limit = 3*gcfg.Horizon + 2*time.Second
		}
	} else {
		app = spmd.Build(m, o.Spec)
		// The stop-on-completion hook is a machine-global effect that can
		// fire from whichever shard retires the app's last task, so this
		// run must never open a parallel window (the sharded queue and its
		// deterministic merge still apply). Long-running workloads that
		// want windowed execution drive the machine directly
		// (sim.Machine.Run).
		m.BlockWindows()
		app.OnDone(func(*spmd.App) { m.Stop() })
		switch {
		case o.Strategy == StratPinned || o.Strategy == StratEQUI:
			app.StartPinned()
		case sb != nil:
			sb.Launch(m, app)
		default:
			app.Start()
		}
	}

	if limit == 0 {
		limit = 2000 * time.Second
	}
	m.Run(int64(limit))

	if reg := m.Metrics(); reg != nil {
		m.Sync()
		elapsed := m.Now()
		for _, c := range m.Cores {
			frac := 0.0
			if elapsed > 0 {
				frac = float64(c.BusyTime) / float64(elapsed)
			}
			reg.Gauge(fmt.Sprintf("sim.core%02d.busy_frac", c.ID())).Set(frac)
		}
		reg.Counter("sim.context_switches").Add(int64(m.Stats.ContextSwitches))
		reg.Counter("sim.wakeups").Add(int64(m.Stats.Wakeups))
		reg.Counter("sim.events").Add(int64(m.Stats.Events))
	}

	res := RunResult{Stats: m.Stats}
	if sb != nil {
		res.SpeedbalMigrations = sb.Migrations
		res.PredictPulls = sb.PredictPulls
		res.PredictHits = sb.PredictHits
		res.PredictMisses = sb.PredictMisses
	}
	if dwrrG != nil {
		res.Stats.Migrations["dwrr"] = dwrrG.Steals()
	}
	if gen != nil {
		res.Elapsed = time.Duration(m.Now())
		res.Jobs, res.Admitted, res.Unfinished = gen.Records, gen.Admitted, gen.Unfinished()
		return res
	}
	res.App, res.Machine = app, m
	res.Elapsed = app.Elapsed()
	res.Speedup = app.Speedup()
	for _, t := range app.Tasks {
		res.AppMigrations += t.Migrations
	}
	if !app.Done() {
		// Surface truncation loudly: experiments must size Limit.
		res.Elapsed = limit
		res.Speedup = 0
		res.Truncated = true
	}
	return res
}

// Repeat runs the configuration Reps times with derived seeds and calls
// fn with each result, in repetition order. The repetitions execute on
// the parallel Runner; fn is invoked on the calling goroutine.
func Repeat(ctx *Context, config int, o RunOpts, fn func(rep int, r RunResult)) {
	r := NewRunner(ctx)
	r.Repeat(config, o, fn)
	r.Wait()
}

// ScaleSpec shrinks a spec's iteration count by the context scale,
// keeping at least one iteration (and for single-iteration EP-style
// specs, shrinking the work instead).
func ScaleSpec(ctx *Context, s spmd.Spec) spmd.Spec {
	if ctx.Scale <= 1 {
		return s
	}
	if s.Iterations > 1 {
		s.Iterations /= ctx.Scale
		if s.Iterations < 1 {
			s.Iterations = 1
		}
	} else {
		s.WorkPerIteration /= float64(ctx.Scale)
	}
	return s
}
