package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/metrics"
)

// traceRun executes one experiment with tracing and metrics attached
// and returns the SHA-256 of the trace, the metrics snapshot, and the
// rendered tables. When keep is non-nil the trace bytes are also
// written there.
func traceRun(t *testing.T, id string, reps, par int, keep io.Writer) (traceSum string, snap metrics.Snapshot, tables string) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var w io.Writer = h
	if keep != nil {
		w = io.MultiWriter(h, keep)
	}
	ctx := &Context{Reps: reps, Scale: 32, Seed: 20100109, Parallelism: par}
	ctx.Trace = NewTraceSink(w, 0)
	ctx.Metrics = metrics.NewAggregate()
	out := renderAll(e.Run(ctx))
	if err := ctx.Trace.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil)), ctx.Metrics.Snapshot(), out
}

// TestTraceParallelDeterminism extends the harness reproducibility
// guarantee to the observability layer: the Chrome trace JSON and the
// aggregated metrics snapshot are byte-identical across Parallelism
// ∈ {1, 2, 8}. fig1 is the analytic experiment (no simulated cells —
// its trace must be empty but valid); abl-jit runs closed cells through
// every traced subsystem, and open-bakeoff open-arrival cells, whose
// rings are flushed through the same ordered path.
func TestTraceParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression test skipped in short mode")
	}
	cases := []struct {
		id       string
		reps     int
		simulate bool
	}{
		{"fig1", 2, false},
		{"abl-jit", 2, true},
		// One repetition keeps the trace near 30 MB.
		{"open-bakeoff", 1, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			var trace bytes.Buffer
			baseSum, baseSnap, baseTables := traceRun(t, tc.id, tc.reps, 1, &trace)
			if !json.Valid(trace.Bytes()) {
				t.Fatalf("trace is not valid JSON:\n%.200s", trace.Bytes())
			}
			var doc struct {
				TraceEvents []struct{} `json:"traceEvents"`
			}
			if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
				t.Fatalf("trace does not parse as a trace-event document: %v", err)
			}
			trace = bytes.Buffer{} // release the base document
			if tc.simulate && len(doc.TraceEvents) == 0 {
				t.Errorf("%s runs simulated cells but traced no events", tc.id)
			}
			for _, par := range []int{2, 8} {
				gotSum, gotSnap, gotTables := traceRun(t, tc.id, tc.reps, par, nil)
				if gotSum != baseSum {
					t.Errorf("trace bytes differ between Parallelism 1 and %d", par)
				}
				if len(gotSnap.Counters) != len(baseSnap.Counters) {
					t.Errorf("Parallelism %d: %d counters, want %d", par, len(gotSnap.Counters), len(baseSnap.Counters))
				} else {
					for i, c := range gotSnap.Counters {
						if c != baseSnap.Counters[i] {
							t.Errorf("Parallelism %d: counter %d = %+v, want %+v", par, i, c, baseSnap.Counters[i])
						}
					}
				}
				if gotTables != baseTables {
					t.Errorf("Parallelism %d: traced run rendered different tables", par)
				}
			}
			// Tracing must not perturb the measured output either: the
			// rendered tables of a traced run match an untraced one.
			e, _ := ByID(tc.id)
			plain := renderAll(e.Run(&Context{Reps: tc.reps, Scale: 32, Seed: 20100109, Parallelism: 1}))
			if plain != baseTables {
				t.Error("attaching the tracer changed the rendered tables")
			}
		})
	}
}
