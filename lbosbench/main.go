// Command lbosbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed host-time budget, checks every op's
// output, prints a human-readable report and, as its last line, one
// JSON object with the metrics BENCHMARK.json declares:
//
//	lbosbench --workload fabric-1k|serve-mix|paper|all --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is untraced and the metrics are the end-to-end
// ones. With --trace 1 the untraced run is followed by a traced replay
// of the same inputs, under a CPU and an allocation profile and the
// benchmark's own spans and scheduler decorator; the metrics are then
// the per-layer ones. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/xrand"
)

// workload is one named input set of the benchmark. declared marks the
// workloads BENCHMARK.json lists, whose end-to-end metrics carry
// regression bounds.
type workload struct {
	name     string
	declared bool
	run      func(cfg runConfig) *runResult
}

// paper is not declared: on a shared host its op time swings by up to
// 1.8x with the load other tenants put on the core it runs on, in
// spells from a second to a whole run, so no bound of 25% or less
// holds from one set of runs to the next (README.md). It stays
// runnable by name, and under all, for its traced breakdown of the
// paper's own experiments.
var workloads = []workload{
	{"fabric-1k", true, runFabric},
	{"serve-mix", true, runServeMix},
	{"paper", false, runPaper},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fabric-1k, serve-mix, paper, or all of them in turn")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 20, "host seconds of timed ops per run")
	traceFlag := fs.Int("trace", 0, "1 = add a traced replay and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []*workload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			chosen = append(chosen, &workloads[i])
		}
	}
	if len(chosen) == 0 || fs.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "usage: lbosbench --workload fabric-1k|serve-mix|paper|all --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, phase: noPhase}
	for _, w := range chosen {
		if code := runWorkload(w, cfg, *traceFlag, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// runWorkload runs one workload and prints its report, ending with the
// JSON result line.
func runWorkload(w *workload, cfg runConfig, trace int, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "lbosbench: workload %s, seed %d, %g s, trace %d, GOMAXPROCS %d, %s\n",
		w.name, cfg.seed, cfg.seconds, trace, runtime.GOMAXPROCS(0), runtime.Version())
	if !w.declared {
		fmt.Fprintf(stdout, "lbosbench: %s is not in BENCHMARK.json; its timings carry no bound\n", w.name)
	}
	base := w.run(cfg)
	out := result{Attempted: base.ops(), Failed: base.failed, Metrics: map[string]metric{}}
	e2e := endToEnd(base)
	printLines(stdout, "end-to-end", e2e)
	printDigests(stdout, "untraced", base)
	printFailures(stdout, base)

	if trace == 0 {
		for _, l := range e2e {
			if _, ok := e2eUnits[l.name]; ok {
				out.Metrics[l.name] = metric{l.value, l.unit}
			}
		}
	} else {
		tr, layers, err := tracedRun(w, cfg, base)
		if err != nil {
			fmt.Fprintf(stderr, "lbosbench: %v\n", err)
			return 1
		}
		out.Attempted += tr.ops()
		out.Failed += tr.failed
		printDigests(stdout, "traced", tr)
		printFailures(stdout, tr)
		printBreakdowns(stdout, layers)
		printLines(stdout, "per-layer", layers.lines)
		for _, l := range layers.lines {
			out.Metrics[l.name] = metric{l.value, l.unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "lbosbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

var noPhase = phaseHooks{start: func() {}, stop: func() {}}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes a metric, turning a value that is not a number
// (a statistic over no samples) into 0, which JSON can carry.
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{v, m.Unit})
}

// e2eUnits are the end-to-end metrics of the JSON result, as declared
// in BENCHMARK.json.
var e2eUnits = map[string]string{
	"setup_s":       "s",
	"wall_s":        "s",
	"allocs_per_op": "count",
	"heap_peak_mb":  "MiB",
	"rps":           "1/s",
}

// endToEnd derives the end-to-end report of an untraced run: the JSON
// metrics, then the workload's own lines and the failure fraction.
func endToEnd(r *runResult) []reportLine {
	n := r.ops()
	lines := []reportLine{
		{"setup_s", median(r.setupS), "s", len(r.setupS)},
		{"wall_s", median(r.opS), "s", n},
		{"allocs_per_op", float64(r.allocs) / float64(max(n, 1)), "count", n},
		{"heap_peak_mb", r.heapPeak / (1 << 20), "MiB", 0},
		{"rps", float64(n) / r.elapsedS, "1/s", n},
	}
	lines = append(lines, r.summary...)
	return append(lines, reportLine{"fail_frac", float64(r.failed) / float64(max(n, 1)), "ratio", n})
}

// deriveSeed derives an independent, non-zero seed for one named input
// from the benchmark seed (0 would mean "default" to the serve codec).
func deriveSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	s := xrand.New(seed ^ h.Sum64()).Uint64()
	if s == 0 {
		s = 1
	}
	return s
}

func printLines(w io.Writer, title string, lines []reportLine) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, l := range lines {
		fmt.Fprintf(w, "  %-22s %14.6g %-6s", l.name, l.value, l.unit)
		if l.n > 0 {
			fmt.Fprintf(w, " (n=%d)", l.n)
		}
		fmt.Fprintln(w)
	}
}

// printDigests prints the output digests: the first op's and one over
// the whole sequence, so a change that moves any output byte shows.
func printDigests(w io.Writer, label string, r *runResult) {
	if len(r.digests) == 0 {
		return
	}
	fmt.Fprintf(w, "%s digests: first op %s, all %d ops %s\n",
		label, r.digests[0], len(r.digests), chainDigest(r.digests))
}

// chainDigest is the SHA-256 over a sequence of digests.
func chainDigest(ds []string) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d)
	}
	return digestOf([]byte(b.String()))
}

func printFailures(w io.Writer, r *runResult) {
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	if r.failed > len(r.failures) {
		fmt.Fprintf(w, "FAIL ... %d failures in all\n", r.failed)
	}
}
