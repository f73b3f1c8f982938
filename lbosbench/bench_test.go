package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestCPUModuleClassifier(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Machine).sharedWith"}, "sim.contention"},
		{[]string{"repro/internal/sim.(*Machine).rearmShared.func1"}, "sim.contention"},
		{[]string{"repro/internal/sim.(*Core).effSpeed"}, "sim.contention"},
		{[]string{"runtime.mallocgc"}, "gc"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "repro/internal/sim.(*Machine).runWindow"}, "sim.window"},
		{[]string{"repro/internal/sim.(*Machine).Run"}, "sim.loop"},
		// the contention model claims the event-queue work it causes
		{[]string{"repro/internal/eventq.(*Queue).Push", "repro/internal/sim.(*Machine).rearmShared"}, "sim.contention"},
		{[]string{"repro/internal/eventq.(*Queue).Pop", "repro/internal/sim.(*Machine).Run"}, "eventq"},
		// allocation inside the contention model is still GC's
		{[]string{"runtime.mallocgc", "repro/internal/sim.(*Core).effSpeed"}, "gc"},
		// standard-library helpers and the stopwatch are their caller's
		{[]string{"sort.insertionSort", "repro/internal/linuxlb.(*Balancer).moveTasks"}, "linuxlb"},
		{[]string{"time.Now", "repro/internal/clock.Start", "main.(*timedScheduler).start"}, "bench"},
		{[]string{"time.Now", "repro/internal/clock.Start", "repro/internal/serve.(*Server).handleSubmit"}, "serve"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net/http.(*conn).serve"}, "http"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := cpuModule(c.stack); got != c.want {
			t.Errorf("cpuModule(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestAllocModuleClassifier(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Core).onlyYieldWaitersQueued"}, "sim"},
		{[]string{"repro/internal/sim.(*Machine).sharedWith"}, "sim"},
		{[]string{"runtime.makeslice", "repro/internal/linuxlb.(*Balancer).moveTasks"}, "linuxlb"},
		{[]string{"encoding/json.Marshal", "repro/internal/serve.(*Server).handleSubmit"}, "serve"},
	}
	for _, c := range cases {
		if got := allocModule(c.stack); got != c.want {
			t.Errorf("allocModule(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
	if got := site([]string{"runtime.newobject", "repro/internal/linuxlb.(*Balancer).moveTasks"}); got != "linuxlb.(*Balancer).moveTasks" {
		t.Errorf("site = %q", got)
	}
}

func TestCallStatsMedian(t *testing.T) {
	a, b := &timedScheduler{calls: 100}, &timedScheduler{calls: 60}
	a.hist[5] = 10 // 16–31 ns
	b.hist[7] = 5  // 64–127 ns
	calls, med := callStats([]*timedScheduler{a, b})
	if calls != 160 || med != 28 {
		t.Errorf("callStats = %d calls, median %v ns; want 160, 28", calls, med)
	}
}

// allocSink keeps the test's allocations alive until profiled.
var allocSink [][]byte

// TestParseProfileReadsRuntimeProfiles decodes a real allocation
// profile written by runtime/pprof and finds this test's own samples.
func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	for i := 0; i < 64; i++ {
		allocSink = append(allocSink, make([]byte, 1<<20))
	}
	runtime.GC() // the profile is as of the last collection
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx := p.valueIndex("alloc_objects")
	if idx < 0 {
		t.Fatalf("no alloc_objects sample type in %v", p.sampleTypes)
	}
	var found int64
	for _, s := range p.samples {
		if len(s.stack) > 0 && strings.HasSuffix(site(s.stack), ".TestParseProfileReadsRuntimeProfiles") {
			found += s.values[idx]
		}
	}
	if found < 32 {
		t.Fatalf("found %d of this test's 64 allocations in the profile", found)
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json declares
// exactly the metrics the benchmark prints, with the same units, and
// exactly the workloads the benchmark marks as declared, in order.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(doc.EndToEnd), len(e2eUnits))
	}
	for _, m := range doc.EndToEnd {
		if u, ok := e2eUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s (%s): the benchmark prints unit %q", m.Name, m.Unit, u)
		}
	}
	layers := perLayer()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(layers))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit {
			t.Errorf("per-layer #%d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
	var declared []string
	for _, w := range workloads {
		if w.declared {
			declared = append(declared, w.name)
		}
	}
	if len(doc.Workloads) != len(declared) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark declares %d", len(doc.Workloads), len(declared))
	}
	for i, w := range doc.Workloads {
		if i < len(declared) && w.Name != declared[i] {
			t.Errorf("workload #%d: BENCHMARK.json %s, benchmark %s", i, w.Name, declared[i])
		}
	}
}

// TestWorkloadsTiny runs every workload for a sliver of time, traced,
// and requires a correct result line carrying every declared metric.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.01", "--trace", trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: correct %v, %d of %d failed:\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := len(e2eUnits)
			if trace == "1" {
				want = len(perLayer())
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), want)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper", "--trace", "2"},
		{"--workload", "paper", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}
