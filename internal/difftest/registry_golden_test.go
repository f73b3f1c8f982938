package difftest

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden.txt from this build (say in CHANGES.md why each changed digest moved)")

// goldenFile pins every registry experiment's output across commits.
const goldenFile = "testdata/golden.txt"

// The corpus workload: one repetition at 1/8 scale under the PPoPP'10
// seed, cheap enough to run the whole registry in a few seconds.
const (
	goldenReps  = 1
	goldenScale = 8
	goldenSeed  = 20100109
)

// goldenObserved lists the experiments whose trace and metrics streams
// are pinned too, not just their tables.
var goldenObserved = map[string]bool{
	"abl-jit":         true,
	"ext-measure":     true,
	"ext-swap":        true,
	"hotplug-churn":   true,
	"open-bakeoff":    true,
	"predict-bakeoff": true,
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// registryDigests runs every registered experiment (only the observed
// ones when onlyObserved is set) and returns one digest per output
// channel, keyed "<id>/tables", "<id>/trace" and "<id>/metrics".
// Rendered tables carry no wall-clock text (the "completed in" lines
// are printed by the CLI around them), so every digest is a pure
// function of the code. The trace streams straight into its hash: an
// open-bakeoff trace at this scale is tens of megabytes.
func registryDigests(t *testing.T, onlyObserved bool) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, e := range exp.All() {
		observed := goldenObserved[e.ID]
		if onlyObserved && !observed {
			continue
		}
		ctx := &exp.Context{Reps: goldenReps, Scale: goldenScale, Seed: goldenSeed}
		traceHash := sha256.New()
		if observed {
			ctx.Trace = exp.NewTraceSink(traceHash, 0)
			ctx.Metrics = metrics.NewAggregate()
		}
		var tables strings.Builder
		for _, tb := range e.Run(ctx) {
			tb.Render(&tables)
		}
		got[e.ID+"/tables"] = sha([]byte(tables.String()))
		if !observed {
			continue
		}
		if err := ctx.Trace.Close(); err != nil {
			t.Fatal(err)
		}
		got[e.ID+"/trace"] = hex.EncodeToString(traceHash.Sum(nil))
		var ms strings.Builder
		for _, tb := range exp.MetricsTables(ctx.Metrics.Snapshot()) {
			tb.Render(&ms)
		}
		got[e.ID+"/metrics"] = sha([]byte(ms.String()))
	}
	return got
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-golden)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# SHA-256 of each registry experiment's output at reps %d, scale %d, seed %d.\n",
		goldenReps, goldenScale, goldenSeed)
	b.WriteString("# Regenerate with: go test ./internal/difftest -run TestRegistryGolden -update-golden\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryGolden pins the output of every registry experiment
// across commits: a refactor or optimisation that moves one byte of any
// table (or of the pinned trace and metrics streams) fails here, even
// when it moves every engine configuration the same way and so passes
// the within-commit matrix. Only amd64 is pinned, as for
// TestContentionGolden. Under the race detector only the observed
// experiments run, which keeps the test near ten seconds there.
func TestRegistryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	partial := raceEnabled && !*updateGolden
	got := registryDigests(t, partial)
	if *updateGolden {
		writeGolden(t, got)
		t.Logf("wrote %d digests to %s", len(got), goldenFile)
		return
	}
	want := readGolden(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: no golden digest (got %s); regenerate with -update-golden", k, got[k])
		case w != got[k]:
			t.Errorf("%s: digest %s, want %s (behaviour moved)", k, got[k], w)
		}
	}
	if partial {
		return
	}
	stale := make([]string, 0, len(want))
	for k := range want {
		if _, ok := got[k]; !ok {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("%s: golden digest for an output this build no longer produces", k)
	}
}
