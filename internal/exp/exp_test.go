package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/spmd"
	"repro/internal/topo"
)

func TestRegistryComplete(t *testing.T) {
	// Every artifact in DESIGN.md §4 must be registered.
	want := []string{
		"table1", "fig1", "fig2", "fig3t", "fig3b", "fig4", "fig4omp",
		"fig5", "fig6", "table2", "table3", "ompS",
		"abl-ts", "abl-int", "abl-jit", "abl-numa", "abl-pull",
		"ext-smt", "ext-measure", "ext-swap",
		"noise-omps", "hotplug-churn", "open-bakeoff",
		"predict-bakeoff", "abl-horizon",
	}
	for _, id := range want {
		e, err := ByID(id)
		if err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
			continue
		}
		if e.Title == "" || e.PaperRef == "" || e.Expect == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely described", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown ID did not error")
	}
}

func TestSeedForDeterministicAndDistinct(t *testing.T) {
	a := seedFor(1, 2, 3)
	if seedFor(1, 2, 3) != a {
		t.Error("seedFor not deterministic")
	}
	seen := map[uint64]bool{a: true}
	for c := 0; c < 20; c++ {
		for r := 0; r < 10; r++ {
			s := seedFor(1, c, r)
			if seen[s] && !(c == 2 && r == 3) {
				t.Errorf("seed collision at config=%d rep=%d", c, r)
			}
			seen[s] = true
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "test",
		Columns: []string{"name", "value"},
	}
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", "x")
	tb.Note("a note %d", 7)
	out := tb.String()
	for _, want := range []string{"== test ==", "alpha", "1.5", "beta", "note: a note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow(`comma,cell`, 2)
	var b strings.Builder
	tb.CSV(&b)
	got := b.String()
	if !strings.Contains(got, `"comma,cell"`) {
		t.Errorf("CSV escaping broken:\n%s", got)
	}
	if !strings.HasPrefix(got, "a,b\n") {
		t.Errorf("CSV header broken:\n%s", got)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"}, {2.0, "2"}, {0.67, "0.67"}, {0, "0"},
		{10.125, "10.12"}, // round-half-even
	}
	for _, c := range cases {
		if got := trimFloat(c.in); got != c.want {
			t.Errorf("trimFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestScaleSpec(t *testing.T) {
	ctx := &Context{Scale: 8}
	s := spmd.Spec{Iterations: 80, WorkPerIteration: 100}
	got := ScaleSpec(ctx, s)
	if got.Iterations != 10 || got.WorkPerIteration != 100 {
		t.Errorf("scaled iterations: %+v", got)
	}
	ep := spmd.Spec{Iterations: 1, WorkPerIteration: 800}
	got = ScaleSpec(ctx, ep)
	if got.Iterations != 1 || got.WorkPerIteration != 100 {
		t.Errorf("scaled EP: %+v", got)
	}
	// Scale 1 is identity.
	if got := ScaleSpec(&Context{Scale: 1}, s); got != s {
		t.Errorf("identity scale changed spec")
	}
}

// Run executes a minimal measurement for every strategy without error
// and with a sane result.
func TestRunAllStrategies(t *testing.T) {
	for _, st := range []Strategy{StratPinned, StratLoad, StratSpeed, StratDWRR, StratULE,
		StratCFS, StratEQUI, StratSpeedOnly} {
		r := Run(RunOpts{
			Topo:     func() *topo.Topology { return topo.SMP(2) },
			Strategy: st,
			Spec: spmd.Spec{
				Name: "t", Threads: 3, Iterations: 5, WorkPerIteration: 1e6,
				Model: spmd.UPC(),
			},
			Seed: 1,
		})
		if !r.App.Done() {
			t.Errorf("%s: app not done", st)
		}
		if r.Speedup <= 0 || r.Elapsed <= 0 {
			t.Errorf("%s: degenerate result %+v", st, r)
		}
	}
}

// Repetitions with different seeds are independent but deterministic.
func TestRepeatDeterminism(t *testing.T) {
	ctx := &Context{Reps: 3, Scale: 1, Seed: 7}
	collect := func() []int64 {
		var out []int64
		Repeat(ctx, 42, RunOpts{
			Topo:     func() *topo.Topology { return topo.SMP(2) },
			Strategy: StratLoad,
			Spec: spmd.Spec{
				Name: "t", Threads: 3, Iterations: 5, WorkPerIteration: 1e6,
				Model: spmd.UPC(), WorkJitter: 0.2,
			},
		}, func(rep int, r RunResult) { out = append(out, int64(r.Elapsed)) })
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("rep %d differs across identical Repeats", i)
		}
	}
}

// Every experiment runs end-to-end at a tiny scale and renders
// non-empty tables (the integration smoke test for the whole harness;
// skipped in -short mode), and every one
// that simulates explains itself: a non-empty trace and at least one
// metrics table. Only the analytic model (fig1) and the topology
// listing (table1) submit no cells. The bakeoffs and ext-measure used
// to wire their own machines outside the Runner and wrote an empty
// trace with no metrics; table3 reused fig4's cells from a process-wide
// cache and traced nothing after it.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in short mode")
	}
	var empty bytes.Buffer
	if err := NewTraceSink(&empty, 0).Close(); err != nil {
		t.Fatal(err)
	}
	noCells := map[string]bool{"fig1": true, "table1": true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var w countWriter
			ctx := &Context{Reps: 1, Scale: 32, Seed: 99,
				Trace: NewTraceSink(&w, 0), Metrics: metrics.NewAggregate()}
			tables := e.Run(ctx)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q empty", tb.Title)
				}
			}
			if err := ctx.Trace.Close(); err != nil {
				t.Fatal(err)
			}
			cells, mtables := ctx.Trace.Cells, len(MetricsTables(ctx.Metrics.Snapshot()))
			switch {
			case noCells[e.ID]:
				if cells != 0 || mtables != 0 {
					t.Errorf("listed as cell-free but traced %d cells and %d metrics tables", cells, mtables)
				}
			case cells == 0 || w.n <= empty.Len():
				t.Errorf("empty trace (%d cells, %d bytes)", cells, w.n)
			case mtables == 0:
				t.Error("no metrics tables")
			}
		})
	}
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
