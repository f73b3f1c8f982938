// Package perfbench is the continuous benchmark harness behind `lbos
// bench`: it runs a fixed suite of simulator benchmarks, reports them as
// a BENCH_<n>.json document, and gates regressions against a committed
// baseline.
//
// The suite has three kinds of cases:
//
//   - calib: a pure-arithmetic spin, independent of the simulator. Its
//     ns/op measures the host, so dividing every other case's ns/op by
//     it (the ns_norm field) yields a hardware-normalised figure that
//     can be compared against a baseline recorded on a different
//     machine. Allocation counts need no such normalisation — they are
//     exact and host-independent.
//   - wake: a balancer-wake micro-benchmark. One op advances a
//     steady-state oversubscribed speed-balanced application by one
//     balance interval, exercising the event-queue and sampling hot
//     paths with tracing off.
//   - experiment cases (fig2, fig3t, fig5, abl-int): full experiment
//     runs at pinned seed and scale. Their events_per_sec is the
//     end-to-end simulator throughput the ROADMAP cares about.
//   - serve: a warm-cache POST through the lbosd handler stack. It
//     runs no simulation at all; its ns/op and allocs/op bound the
//     overhead the serving layer adds to a repeated query.
//
// Regression gate: a report compared against a baseline fails when any
// case's allocs/op grows beyond the tolerance, or its calibrated ns/op
// (ns_norm) does. Wall-clock noise is absorbed by the calibration case;
// allocation counts are deterministic.
package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/exp"
	"repro/internal/linuxlb"
	"repro/internal/metrics"
	"repro/internal/openload"
	"repro/internal/perturb"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/topo"
)

// Schema is the BENCH_<n>.json schema version.
const Schema = 1

// suiteSeed pins every simulation in the suite.
const suiteSeed = 20100109

// Case is one benchmark measurement in a report.
type Case struct {
	Name string `json:"name"`
	Desc string `json:"desc,omitempty"`
	// N is the iteration count the numbers below are averaged over.
	N int `json:"n"`
	// NsPerOp is raw wall time per op — host-dependent; compare NsNorm.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from the Go allocator and are
	// host-independent.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// EventsPerOp counts simulator events processed per op (0 for the
	// calibration case); it is a pure function of the seed.
	EventsPerOp float64 `json:"events_per_op,omitempty"`
	// EventsPerSec is the simulator throughput EventsPerOp/NsPerOp.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// NsNorm is NsPerOp divided by the calibration case's NsPerOp —
	// the hardware-normalised cost a baseline comparison uses.
	NsNorm float64 `json:"ns_norm,omitempty"`
}

// Report is the BENCH_<n>.json document.
type Report struct {
	Schema    int    `json:"schema"`
	Tool      string `json:"tool"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Suite     []Case `json:"suite"`
	// Comparison is present when the run was gated against a baseline.
	Comparison *Comparison `json:"comparison,omitempty"`
}

// Comparison records a baseline gate evaluation.
type Comparison struct {
	Baseline  string  `json:"baseline"`
	Tolerance float64 `json:"tolerance"`
	Deltas    []Delta `json:"deltas"`
	// Regressions lists human-readable gate failures; empty means pass.
	Regressions []string `json:"regressions,omitempty"`
}

// Delta is one case's new/baseline ratios (1.0 = unchanged, lower is
// better for costs, higher is better for events_per_sec).
type Delta struct {
	Name              string  `json:"name"`
	NsNormRatio       float64 `json:"ns_norm_ratio,omitempty"`
	AllocsRatio       float64 `json:"allocs_ratio,omitempty"`
	EventsPerSecRatio float64 `json:"events_per_sec_ratio,omitempty"`
}

// Spec declares one suite case: bench runs the measurement b.N times and
// returns the total number of simulator events processed inside the
// timed region.
type Spec struct {
	Name  string
	Desc  string
	bench func(b *testing.B) (events int64)
}

// Suite returns the fixed benchmark suite, calibration first.
func Suite() []Spec {
	return []Spec{
		{
			Name:  "calib",
			Desc:  "pure-arithmetic host calibration (normalises ns/op across machines)",
			bench: calibBench,
		},
		{
			Name:  "wake",
			Desc:  "one balance interval of a steady-state speed-balanced app, tracing off",
			bench: wakeBench,
		},
		{
			Name:  "predict",
			Desc:  "the wake scenario with the predictive balancer mode armed",
			bench: predictBench,
		},
		{
			Name:  "perturb",
			Desc:  "the wake scenario with the full fault-injection mix active",
			bench: perturbBench,
		},
		{
			Name:  "fab1k",
			Desc:  "1,024-core fabric: 16 socket-pinned apps on 16 parallel event shards",
			bench: fabric1kBench,
		},
		{
			Name:  "open",
			Desc:  "open-system arrivals at rho=0.8 under the Linux balancer, tracing off",
			bench: openBench,
		},
		{
			Name:  "serve",
			Desc:  "lbosd cache hit: one warm POST /v1/runs?wait=1 through the full handler stack",
			bench: serveBench,
		},
		experimentCase("fig2", "round-robin vs load-balanced placement sweep"),
		experimentCase("fig3t", "speedup of NAS-like benchmarks under the balancers"),
		experimentCase("fig5", "multiprogrammed speedup"),
		experimentCase("abl-int", "balance-interval ablation"),
	}
}

// sink defeats dead-code elimination in calibBench.
var sink uint64

// calibBench spins a fixed amount of integer arithmetic: no memory
// traffic, no simulator, no allocation — as close to a pure clock-rate
// probe as portable Go gets.
func calibBench(b *testing.B) int64 {
	b.ReportAllocs()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1<<21; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	sink = x
	return 0
}

// wakeSetup builds the wake case's machine: 32 UPC threads on the
// 16-core Tigerton under speed balancing, run one simulated second into
// its steady state. The app is effectively endless, so every later
// 100 ms interval does the same steady-state work: ~16 balancer wakes
// (sample + balance) plus the compute/barrier event traffic they ride
// on.
func wakeSetup() *sim.Machine {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: suiteSeed, NewScheduler: cfs.Factory()})
	app := spmd.Build(m, spmd.Spec{
		Name:             "wake",
		Threads:          32,
		Iterations:       1 << 30,
		WorkPerIteration: 3e6, // 3 ms between barriers
		Model:            spmd.UPC(),
	})
	bal := speedbal.New(speedbal.Config{})
	bal.Launch(m, app)
	m.RunFor(time.Second) // reach steady state
	return m
}

// wakeBench measures the balancer-wake hot path: the wakeSetup machine
// advanced one 100 ms balance interval per op.
func wakeBench(b *testing.B) int64 {
	m := wakeSetup()
	before := m.Stats.Events
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RunFor(100 * time.Millisecond)
	}
	b.StopTimer()
	return int64(m.Stats.Events - before)
}

// predictBench is wakeBench with the predictive mode armed: the same
// steady-state app, but every balance interval now also feeds the
// per-thread and per-core speed estimators, blends effective speeds and
// audits last interval's slowest-core call. Its delta over the wake
// case is the marginal cost of prediction; the wake case itself (which
// leaves Predict zero) is what proves the predictive plumbing stays off
// the hot path when disabled.
func predictBench(b *testing.B) int64 {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: suiteSeed, NewScheduler: cfs.Factory()})
	app := spmd.Build(m, spmd.Spec{
		Name:             "predict",
		Threads:          32,
		Iterations:       1 << 30,
		WorkPerIteration: 3e6,
		Model:            spmd.UPC(),
	})
	bal := speedbal.New(speedbal.Config{Predict: predict.DefaultConfig()})
	bal.Launch(m, app)
	m.RunFor(time.Second)
	before := m.Stats.Events
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RunFor(100 * time.Millisecond)
	}
	b.StopTimer()
	return int64(m.Stats.Events - before)
}

// perturbBench is wakeBench with every fault-injection family active:
// schedulable kthread noise, hotplug churn, frequency drift and
// interrupt storms, with periods compressed so each 100 ms op sees
// events from all four. It pins the injector hot paths — timer-driven
// steal application, daemon wake/sleep cycling, drain/replug — so a
// perturbation-layer slowdown lands with a number attached.
func perturbBench(b *testing.B) int64 {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: suiteSeed, NewScheduler: cfs.Factory()})
	noise := perturb.KthreadNoise()
	noise.Cores = cpuset.Of(0, 2, 5, 9)
	in := perturb.New(perturb.Config{
		Noise: noise,
		Hotplug: perturb.HotplugConfig{Interval: 80 * time.Millisecond,
			OffTime: 30 * time.Millisecond, Jitter: 0.5, MaxOffline: 1},
		Freq: perturb.FreqConfig{Interval: 25 * time.Millisecond, Min: 0.6, Max: 1.0,
			Step: 0.1, Jitter: 0.5},
		Storm: perturb.StormConfig{Period: 60 * time.Millisecond,
			Duration: 2 * time.Millisecond, Jitter: 0.5, Steal: 1.0},
	})
	m.AddActor(in)
	app := spmd.Build(m, spmd.Spec{
		Name:             "perturb",
		Threads:          32,
		Iterations:       1 << 30,
		WorkPerIteration: 3e6,
		Model:            spmd.UPC(),
	})
	bal := speedbal.New(speedbal.Config{})
	bal.Launch(m, app)
	m.RunFor(time.Second)
	before := m.Stats.Events
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RunFor(100 * time.Millisecond)
	}
	b.StopTimer()
	return int64(m.Stats.Events - before)
}

// openBench measures the open-system admission/departure hot path: an
// endless-horizon openload generator at ρ=0.8 on the 16-core Tigerton
// under the Linux balancer, advanced 100 ms per op. Each op covers the
// whole arrival pipeline — exponential draws, control-queue timers,
// task creation, placement, per-job accounting on departure — on top of
// the scheduler traffic the admitted jobs generate.
func openBench(b *testing.B) int64 {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: suiteSeed, NewScheduler: cfs.Factory()})
	m.AddActor(linuxlb.Default())
	m.AddActor(openload.New(openload.Config{Rho: 0.8}))
	m.RunFor(time.Second) // reach steady state
	before := m.Stats.Events
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RunFor(100 * time.Millisecond)
	}
	b.StopTimer()
	return int64(m.Stats.Events - before)
}

// serveBench measures the lbosd cache-hit path end to end: the cache
// is warmed with one real fig1 run, then every op is a full POST
// /v1/runs?wait=1 through the HTTP handler stack — spec parse,
// canonicalization, SHA-256 key derivation, cache lookup and response
// serialisation — that must come back a hit without touching the
// worker pool. This is the overhead a warm lbosd adds on top of zero
// simulation work; a regression here means repeated queries stopped
// being effectively free.
func serveBench(b *testing.B) int64 {
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 4, Version: "bench"})
	defer s.Drain()
	h := s.Handler()
	spec := `{"experiment":"fig1","reps":1,"scale":8,"seed":20100109}`
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/runs?wait=1", strings.NewReader(spec))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	if w := post(); w.Code != http.StatusOK {
		panic(fmt.Sprintf("perfbench: serve warmup failed: %d %s", w.Code, w.Body.String()))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w := post(); w.Code != http.StatusOK || w.Header().Get("X-Lbos-Cache") != serve.CacheHit {
			panic(fmt.Sprintf("perfbench: serve op was not a cache hit: %d %q",
				w.Code, w.Header().Get("X-Lbos-Cache")))
		}
	}
	b.StopTimer()
	return 0
}

// fabric1kSetup assembles the datacenter-scale sharded scenario: a
// 16-socket × 64-core fabric (1,024 cores), one pinned 64-thread
// UPC-sleep app per socket, and a Linux balancer instance per socket
// domain, on 16 event shards with parallel lookahead windows. Every
// task, barrier and balancer is socket-contained, so the simulation runs
// almost entirely inside parallel windows — the configuration the
// 1,024-core throughput case exists to gate.
func fabric1kSetup() *sim.Machine { return fabricSetup(16, 64) }

// fabricSetup is fabric1kSetup for a sockets × perSocket fabric, with
// one event shard per socket.
func fabricSetup(sockets, perSocket int) *sim.Machine {
	tp := topo.Fabric(sockets, perSocket)
	m := sim.New(tp, sim.Config{Seed: suiteSeed, NewScheduler: cfs.Factory(),
		Shards: sockets, ShardParallel: true})
	sets := make([]cpuset.Set, sockets)
	for _, ci := range tp.Cores {
		sets[ci.Socket] = sets[ci.Socket].Add(ci.ID)
	}
	for s, set := range sets {
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

// fabric1kBench measures end-to-end sharded throughput at 1,024 cores:
// one op advances the fabric1kSetup steady state by 10 ms of simulated
// time. The events/s figure is the scale headline; the ns_norm and
// allocs gates catch regressions in the shard merge and window machinery
// that the paper-sized cases cannot see.
func fabric1kBench(b *testing.B) int64 {
	m := fabric1kSetup()
	m.RunFor(100 * time.Millisecond) // reach steady state
	before := m.Stats.Events
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RunFor(10 * time.Millisecond)
	}
	b.StopTimer()
	return int64(m.Stats.Events - before)
}

// experimentCase wraps a registered experiment as a suite case: one op
// is a full single-rep serial run at scale 8 and the pinned seed, with
// the event count taken from the harness metrics.
func experimentCase(id, desc string) Spec {
	return Spec{
		Name: id,
		Desc: desc,
		bench: func(b *testing.B) (events int64) {
			e, err := exp.ByID(id)
			if err != nil {
				panic(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := &exp.Context{
					Reps: 1, Scale: 8, Seed: suiteSeed,
					Parallelism: 1,
					Metrics:     metrics.NewAggregate(),
				}
				e.Run(ctx)
				events += counterValue(ctx.Metrics.Snapshot(), "sim.events")
			}
			return events
		},
	}
}

// counterValue reads one counter from a snapshot (0 when absent).
func counterValue(s metrics.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// RunSuite executes the suite and assembles a report. log, when
// non-nil, receives a progress line per completed case.
func RunSuite(log io.Writer) *Report {
	r := &Report{
		Schema:    Schema,
		Tool:      "lbos bench",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	var calibNs float64
	for _, spec := range Suite() {
		var events int64
		res := testing.Benchmark(func(b *testing.B) {
			events = spec.bench(b)
		})
		c := Case{
			Name:        spec.Name,
			Desc:        spec.Desc,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if events > 0 {
			c.EventsPerOp = float64(events) / float64(res.N)
			if res.T > 0 {
				c.EventsPerSec = float64(events) / res.T.Seconds()
			}
		}
		if spec.Name == "calib" {
			calibNs = c.NsPerOp
		} else if calibNs > 0 {
			c.NsNorm = c.NsPerOp / calibNs
		}
		r.Suite = append(r.Suite, c)
		if log != nil {
			fmt.Fprintf(log, "bench: %-8s %12.0f ns/op %8d allocs/op %10d B/op",
				c.Name, c.NsPerOp, c.AllocsPerOp, c.BytesPerOp)
			if c.EventsPerSec > 0 {
				fmt.Fprintf(log, " %12.0f events/s", c.EventsPerSec)
			}
			fmt.Fprintln(log)
		}
	}
	return r
}

// zeroAllocSlack is the allocs/op a case with an allocation-free
// baseline may read before Compare fails it. A ratio cannot apply to a
// zero baseline, and a strict zero would fail on runtime noise: fab1k's
// shard workers park on a channel, and after each benchmark round's GC
// the Go runtime allocates a few parking records (0–5 per op measured).
const zeroAllocSlack = 16

// Compare evaluates report r against a baseline with the given relative
// tolerance (0.15 = 15%). The allocs/op gate is absolute (counts are
// host-independent), and an allocation-free baseline case fails above
// zeroAllocSlack; the ns/op gate uses the calibration-normalised
// figures so baselines recorded on other machines stay meaningful. The
// calibration case itself is never gated.
func Compare(r, base *Report, baselinePath string, tol float64) *Comparison {
	cmp := &Comparison{Baseline: baselinePath, Tolerance: tol}
	old := make(map[string]Case, len(base.Suite))
	for _, c := range base.Suite {
		old[c.Name] = c
	}
	for _, c := range r.Suite {
		if c.Name == "calib" {
			continue
		}
		o, ok := old[c.Name]
		if !ok {
			continue
		}
		d := Delta{Name: c.Name}
		if o.NsNorm > 0 && c.NsNorm > 0 {
			d.NsNormRatio = c.NsNorm / o.NsNorm
			if d.NsNormRatio > 1+tol {
				cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
					"%s: normalised ns/op regressed %.1f%% (%.3f -> %.3f, tolerance %.0f%%)",
					c.Name, (d.NsNormRatio-1)*100, o.NsNorm, c.NsNorm, tol*100))
			}
		}
		if o.AllocsPerOp > 0 {
			d.AllocsRatio = float64(c.AllocsPerOp) / float64(o.AllocsPerOp)
			if d.AllocsRatio > 1+tol {
				cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
					"%s: allocs/op regressed %.1f%% (%d -> %d, tolerance %.0f%%)",
					c.Name, (d.AllocsRatio-1)*100, o.AllocsPerOp, c.AllocsPerOp, tol*100))
			}
		} else if c.AllocsPerOp > zeroAllocSlack {
			cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
				"%s: allocs/op regressed (0 -> %d, an allocation-free baseline allows %d)",
				c.Name, c.AllocsPerOp, zeroAllocSlack))
		}
		if o.EventsPerSec > 0 && c.EventsPerSec > 0 {
			d.EventsPerSecRatio = c.EventsPerSec / o.EventsPerSec
		}
		cmp.Deltas = append(cmp.Deltas, d)
	}
	return cmp
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Load reads a report from a file.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: parsing %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perfbench: %s has schema %d, want %d", path, r.Schema, Schema)
	}
	return &r, nil
}
