package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// layerMetric is one per-layer metric of the traced run, as declared in
// BENCHMARK.json. Every workload reports every one; a layer the
// workload does not reach reads 0.
type layerMetric struct {
	name, unit string
}

// selfModules are the modules whose CPU self time is reported as
// "<module>_s" (sim's three parts) or "<module>.self_s". The rest of
// the profile is other.self_s.
var selfModules = []string{
	"sim.contention", "sim.loop", "sim.window", "eventq",
	"cfs", "dwrr", "ule", "linuxlb", "speedbal", "predict",
	"openload", "perturb", "spmd", "exp", "serve", "gc", "http", "bench",
}

// allocModules are the modules whose heap allocations are reported as
// "<module>.allocs"; sim's parts are summed.
var allocModules = []string{"sim", "linuxlb", "cfs", "exp", "serve"}

// workloadLayers are the per-layer values the workloads measure
// themselves (runResult.layer), with their units.
var workloadLayers = []layerMetric{
	{"eventq.pending_max", "count"},
	{"sim.events", "count"},
	{"sim.context_switches", "count"},
	{"sim.wakeups", "count"},
	{"sim.migrations", "count"},
	{"sim.windows", "count"},
	{"sim.window_frac", "ratio"},
	{"cfs.calls", "count"},
	{"cfs.call_ns", "ns"},
	{"linuxlb.migrations", "count"},
	{"speedbal.migrations", "count"},
	{"serve.handler_hit_us", "us"},
	{"serve.parse_us", "us"},
	{"serve.canon_us", "us"},
	{"serve.key_us", "us"},
	{"serve.cache_get_us", "us"},
	{"serve.render_us", "us"},
	{"serve.exec_ms_mean", "ms"},
	{"serve.queue_ms_mean", "ms"},
	{"serve.hit_frac", "ratio"},
	{"serve.shed", "count"},
	{"client.hit_ms_p50", "ms"},
	{"client.hit_ms_p99", "ms"},
	{"client.miss_ms_p50", "ms"},
	{"client.miss_ms_p90", "ms"},
	{"client.miss_frac", "ratio"},
}

// selfName is the metric name of a module's CPU self time.
func selfName(module string) string {
	if strings.HasPrefix(module, "sim.") {
		return module + "_s"
	}
	return module + ".self_s"
}

// perLayer lists every per-layer metric in output order.
func perLayer() []layerMetric {
	out := []layerMetric{{"cpu.total_s", "s"}}
	for _, m := range selfModules {
		out = append(out, layerMetric{selfName(m), "s"})
	}
	out = append(out, layerMetric{"other.self_s", "s"})
	for _, m := range allocModules {
		out = append(out, layerMetric{m + ".allocs", "count"})
	}
	out = append(out, layerMetric{"sim.events_per_s", "1/s"}, layerMetric{"trace.overhead_s", "s"})
	return append(out, workloadLayers...)
}

// moduleShare is one row of a profile's breakdown by module.
type moduleShare struct {
	module string
	value  float64 // per op
	share  float64 // of the profile's total
}

type layerReport struct {
	lines    []reportLine
	cpu      []moduleShare            // CPU seconds per op
	cpuByExp map[string][]moduleShare // the same, per labelled experiment
	allocs   []moduleShare            // heap allocations per op
	sites    []moduleShare            // heap allocations per op by function
}

// tracedRun replays the workload's inputs with its own instruments on
// and a CPU and an allocation profile around the ops, checks that every
// op's output matches the untraced run's, and attributes the profiles
// to modules.
func tracedRun(w *workload, cfg runConfig, base *runResult) (*runResult, *layerReport, error) {
	var cpuBuf, allocBefore, allocAfter bytes.Buffer
	var profErr error
	cfg.traced = true
	cfg.phase = phaseHooks{
		start: func() {
			runtime.GC()
			profErr = pprof.Lookup("allocs").WriteTo(&allocBefore, 0)
			if profErr == nil {
				profErr = pprof.StartCPUProfile(&cpuBuf)
			}
		},
		stop: func() {
			pprof.StopCPUProfile()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(&allocAfter, 0); profErr == nil {
				profErr = err
			}
		},
	}
	tr := w.run(cfg)
	if profErr != nil {
		return nil, nil, fmt.Errorf("profiling: %w", profErr)
	}
	for i := 0; i < min(len(base.digests), len(tr.digests)); i++ {
		if base.digests[i] != tr.digests[i] {
			tr.fail("traced op %d output %.12s, untraced %.12s", i, tr.digests[i], base.digests[i])
		}
	}

	values := map[string]float64{}
	rep := &layerReport{}
	if tr.ops() > 0 {
		ops := float64(tr.ops())
		cpuProf, err := parseProfile(cpuBuf.Bytes())
		if err != nil {
			return nil, nil, err
		}
		cpu, err := tally(cpuProf, "cpu", func(s sample) string { return cpuModule(s.stack) })
		if err != nil {
			return nil, nil, err
		}
		var total, listed float64
		for _, v := range cpu {
			total += v
		}
		for _, m := range selfModules {
			values[selfName(m)] = cpu[m] / 1e9 / ops
			listed += cpu[m]
		}
		values["cpu.total_s"] = total / 1e9 / ops
		values["other.self_s"] = (total - listed) / 1e9 / ops
		rep.cpu = shares(cpu, 1e-9/ops)
		byExp, err := tally(cpuProf, "cpu", func(s sample) string {
			return s.labels[expLabel] + "\x00" + cpuModule(s.stack)
		})
		if err != nil {
			return nil, nil, err
		}
		rep.cpuByExp = splitShares(byExp, 1e-9/ops)

		allocs, err := allocDelta(allocBefore.Bytes(), allocAfter.Bytes(), allocModule)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range allocModules {
			values[m+".allocs"] = allocs[m] / ops
		}
		rep.allocs = shares(allocs, 1/ops)
		sites, err := allocDelta(allocBefore.Bytes(), allocAfter.Bytes(), site)
		if err != nil {
			return nil, nil, err
		}
		rep.sites = shares(sites, 1/ops)
	}
	for k, v := range tr.layer {
		values[k] = v
	}
	for k, v := range base.layer {
		if strings.HasPrefix(k, "client.") {
			values[k] = v // client latencies as the untraced run saw them
		}
	}
	baseWall := median(base.opS)
	if baseWall > 0 {
		values["sim.events_per_s"] = values["sim.events"] / baseWall
	}
	values["trace.overhead_s"] = median(tr.opS) - baseWall
	for _, l := range perLayer() {
		rep.lines = append(rep.lines, reportLine{name: l.name, value: values[l.name], unit: l.unit})
	}
	return tr, rep, nil
}

// expLabel is the pprof label the paper workload's traced run puts on
// each experiment, so its CPU can be broken down by experiment.
const expLabel = "experiment"

// tally sums the sample type typ of a profile by key(sample).
func tally(p *profile, typ string, key func(sample) string) (map[string]float64, error) {
	idx := p.valueIndex(typ)
	if idx < 0 {
		return nil, fmt.Errorf("profile has no %q samples (types %v)", typ, p.sampleTypes)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		out[key(s)] += float64(s.values[idx])
	}
	return out, nil
}

// allocDelta decodes two allocation profiles (they are cumulative) and
// returns the objects allocated between them, summed by classify.
func allocDelta(before, after []byte, classify func([]string) string) (map[string]float64, error) {
	var sums [2]map[string]float64
	for i, gz := range [][]byte{before, after} {
		p, err := parseProfile(gz)
		if err != nil {
			return nil, err
		}
		if sums[i], err = tally(p, "alloc_objects", func(s sample) string { return classify(s.stack) }); err != nil {
			return nil, err
		}
	}
	for k, v := range sums[0] {
		sums[1][k] -= v
	}
	return sums[1], nil
}

// splitShares breaks "<label>\x00<module>" totals into one breakdown per
// label; samples without the label are left out.
func splitShares(byKey map[string]float64, scale float64) map[string][]moduleShare {
	split := map[string]map[string]float64{}
	for k, v := range byKey {
		label, module, _ := strings.Cut(k, "\x00")
		if label == "" {
			continue
		}
		if split[label] == nil {
			split[label] = map[string]float64{}
		}
		split[label][module] += v
	}
	out := map[string][]moduleShare{}
	for label, m := range split {
		out[label] = shares(m, scale)
	}
	return out
}

// shares scales per-module profile totals by scale (to per-op units)
// and adds each module's share of the whole, largest first.
func shares(byModule map[string]float64, scale float64) []moduleShare {
	var total float64
	for _, v := range byModule {
		total += v
	}
	var out []moduleShare
	for m, v := range byModule {
		out = append(out, moduleShare{module: m, value: v * scale, share: v / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].value != out[j].value {
			return out[i].value > out[j].value
		}
		return out[i].module < out[j].module
	})
	return out
}

// printBreakdowns prints the traced run's profiles by module, by
// experiment where labelled, and the top allocation sites.
func printBreakdowns(w io.Writer, rep *layerReport) {
	printShares(w, "traced CPU by module (self seconds per op, share)", "s", rep.cpu, 0)
	labels := make([]string, 0, len(rep.cpuByExp))
	for l := range rep.cpuByExp {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		printShares(w, "traced CPU of "+l+" by module (top 6)", "s", rep.cpuByExp[l], 6)
	}
	printShares(w, "traced heap allocations by module (per op, share)", "count", rep.allocs, 0)
	printShares(w, "traced heap allocations by function (top 8)", "count", rep.sites, 8)
}

// printShares prints a breakdown, its first top rows when top > 0.
func printShares(w io.Writer, title, unit string, ms []moduleShare, top int) {
	if top > 0 && len(ms) > top {
		ms = ms[:top]
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		if m.value <= 0 {
			continue // a module the profile saw only before the timed ops
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-5s %6.1f%%\n", m.module, m.value, unit, 100*m.share)
	}
}
