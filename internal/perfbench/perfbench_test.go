package perfbench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func report(cases ...Case) *Report {
	return &Report{Schema: Schema, Tool: "lbos bench", Suite: cases}
}

// The gate flags normalised-ns and allocs regressions beyond tolerance,
// stays quiet inside it, and never gates the calibration case.
func TestCompareGates(t *testing.T) {
	base := report(
		Case{Name: "calib", NsPerOp: 1e6},
		Case{Name: "wake", NsNorm: 1.0, AllocsPerOp: 1000, EventsPerSec: 1e6},
	)
	// Within tolerance: 10% slower, same allocs.
	ok := report(
		Case{Name: "calib", NsPerOp: 2e6}, // calib shift alone is not a regression
		Case{Name: "wake", NsNorm: 1.10, AllocsPerOp: 1000, EventsPerSec: 9e5},
	)
	c := Compare(ok, base, "base.json", 0.15)
	if len(c.Regressions) != 0 {
		t.Errorf("within-tolerance run flagged: %v", c.Regressions)
	}
	if len(c.Deltas) != 1 || c.Deltas[0].Name != "wake" {
		t.Fatalf("deltas = %+v, want exactly the wake case", c.Deltas)
	}
	if got := c.Deltas[0].EventsPerSecRatio; got != 0.9 {
		t.Errorf("events/s ratio = %v, want 0.9", got)
	}

	// Past tolerance on both gated axes.
	bad := report(
		Case{Name: "calib", NsPerOp: 1e6},
		Case{Name: "wake", NsNorm: 1.30, AllocsPerOp: 1300, EventsPerSec: 1e6},
	)
	c = Compare(bad, base, "base.json", 0.15)
	if len(c.Regressions) != 2 {
		t.Fatalf("regressions = %v, want ns and allocs", c.Regressions)
	}
	for _, r := range c.Regressions {
		if !strings.HasPrefix(r, "wake: ") {
			t.Errorf("regression %q not attributed to its case", r)
		}
	}

	// An allocation-free baseline has no ratio to apply the tolerance
	// to: runtime noise up to zeroAllocSlack passes, a relapse fails.
	free := report(Case{Name: "calib", NsPerOp: 1e6}, Case{Name: "wake", NsNorm: 1.0})
	for _, tc := range []struct {
		allocs int64
		gated  bool
	}{{0, false}, {zeroAllocSlack, false}, {zeroAllocSlack + 1, true}, {1699, true}} {
		run := report(Case{Name: "calib", NsPerOp: 1e6}, Case{Name: "wake", NsNorm: 1.0, AllocsPerOp: tc.allocs})
		if c := Compare(run, free, "base.json", 0.15); (len(c.Regressions) > 0) != tc.gated {
			t.Errorf("%d allocs/op against a zero baseline: regressions %v, want gated=%v",
				tc.allocs, c.Regressions, tc.gated)
		}
	}

	// A case missing from the baseline is skipped, not gated.
	extra := report(Case{Name: "brand-new", NsNorm: 99, AllocsPerOp: 99})
	if c := Compare(extra, base, "base.json", 0.15); len(c.Regressions) != 0 {
		t.Errorf("unknown case gated: %v", c.Regressions)
	}
}

// Reports survive a write/load round trip, and Load rejects foreign
// schema versions.
func TestJSONRoundTrip(t *testing.T) {
	r := report(Case{Name: "wake", N: 7, NsPerOp: 123.5, AllocsPerOp: 42,
		EventsPerOp: 10, EventsPerSec: 5e6, NsNorm: 0.5})
	r.Comparison = &Comparison{Baseline: "b.json", Tolerance: 0.15,
		Deltas: []Delta{{Name: "wake", AllocsRatio: 0.5}}}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(r)
	have, _ := json.Marshal(got)
	if !bytes.Equal(want, have) {
		t.Errorf("round trip changed the report:\n%s\n%s", want, have)
	}

	bad := *r
	bad.Schema = Schema + 1
	buf.Reset()
	if err := bad.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted a report with a foreign schema version")
	}
}

// The committed suite stays calibration-first with unique names — the
// invariants RunSuite's normalisation and Compare's map rely on.
func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) == 0 || suite[0].Name != "calib" {
		t.Fatal("suite must lead with the calibration case")
	}
	seen := map[string]bool{}
	for _, s := range suite {
		if seen[s.Name] {
			t.Errorf("duplicate case name %q", s.Name)
		}
		seen[s.Name] = true
		if s.bench == nil {
			t.Errorf("case %q has no bench function", s.Name)
		}
	}
	for _, name := range []string{"wake", "fig2", "fig3t", "fig5", "abl-int", "fab1k", "open", "serve"} {
		if !seen[name] {
			t.Errorf("suite is missing the %q case", name)
		}
	}
}

// The 1,024-core case must actually exercise the sharded engine: if the
// parallel lookahead windows never open (an affinity or balancer-scope
// slip), the bench silently measures the sequential merge and the scale
// gate means nothing.
func TestFabric1kWindowsOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1,024-core machine")
	}
	m := fabric1kSetup()
	m.RunFor(50 * time.Millisecond)
	if m.Stats.Events == 0 {
		t.Fatal("fabric1k machine processed no events")
	}
	if m.Windows() == 0 {
		t.Fatal("fabric1k ran entirely outside parallel windows — the shard scope of an app or balancer is broken")
	}
	if frac := float64(m.WindowEvents()) / float64(m.Stats.Events); frac < 0.5 {
		t.Errorf("only %.0f%% of events ran inside windows, want most", frac*100)
	}
}

// requireNoAllocs fails t unless run, after warm-up, allocates nothing
// on average over runs calls. Race builds run the scenario but skip the
// bound: the race runtime allocates on its own.
func requireNoAllocs(t *testing.T, runs int, run func()) {
	t.Helper()
	avg := testing.AllocsPerRun(runs, run)
	if raceEnabled {
		t.Skipf("race build: %v allocs per run, bound not checked", avg)
	}
	if avg != 0 {
		t.Errorf("steady state allocates %v times per run, want 0", avg)
	}
}

// The wake case's steady state is allocation-free: a 100 ms balance
// interval of 32 yield-barrier UPC threads under speed balancing on the
// Tigerton. Program steps return actions by value, barriers reuse their
// waiter buffers and the yield-waiter queue scan is a func bound at
// machine construction.
func TestWakeIntervalAllocFree(t *testing.T) {
	m := wakeSetup()
	requireNoAllocs(t, 5, func() { m.RunFor(100 * time.Millisecond) })
}

// The sharded engine's steady state is allocation-free too: a span of
// pinned UPC-sleep apps on a 4-socket fabric, one event shard per socket
// with parallel windows and a socket-domain Linux balancer each.
func TestFabricSpanAllocFree(t *testing.T) {
	m := fabricSetup(4, 16)
	m.RunFor(50 * time.Millisecond)
	if m.Windows() == 0 {
		t.Fatal("no parallel window opened; the test would measure the serial path")
	}
	requireNoAllocs(t, 5, func() { m.RunFor(10 * time.Millisecond) })
}
