package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"sync"

	"repro/internal/exp"
	"repro/internal/perturb"
)

// Spec is the wire form of one experiment request: the JSON document a
// client POSTs to /v1/runs. It mirrors the knobs of `lbos run` — an
// experiment ID from the internal/exp registry plus the workload dials
// (reps, scale, seed, perturb, predict) and the engine dials (parallel,
// shards, shardpar).
//
// The two groups are deliberately distinct. Workload dials select *what*
// is computed and are part of the cache identity; engine dials select
// *how fast* it is computed and are normalised out of the cache key,
// because the repository-wide determinism contract (README "Determinism
// policy", proven by internal/difftest) guarantees the output bytes are
// identical at every -parallel/-shards/-shardpar level.
type Spec struct {
	// Experiment is the registry ID (`lbos list`), e.g. "fig1".
	Experiment string `json:"experiment"`
	// Reps is the repetitions per configuration (default 10, the
	// paper's count).
	Reps int `json:"reps,omitempty"`
	// Scale divides workload sizes (default 1 = full paper scale).
	Scale int `json:"scale,omitempty"`
	// Seed is the base RNG seed (default 20100109, the PPoPP'10 date).
	Seed uint64 `json:"seed,omitempty"`
	// Perturb composes deterministic fault injection onto every run:
	// comma-separated families from noise, kthread, hotplug, freq,
	// storm, all ("" = none; "all" is canonicalised to the family list).
	Perturb string `json:"perturb,omitempty"`
	// Predict arms the speed balancer's predictive mode in SPEED runs.
	Predict bool `json:"predict,omitempty"`
	// Trace additionally records a Chrome trace-event stream, fetched
	// from /v1/runs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
	// Metrics appends the aggregated scheduler metrics tables to the
	// result document.
	Metrics bool `json:"metrics,omitempty"`

	// Parallel is the experiment grid's worker count (0 = GOMAXPROCS).
	// Engine dial: not part of the cache key.
	Parallel int `json:"parallel,omitempty"`
	// Shards partitions each run's simulator into per-socket event
	// shards. Engine dial: not part of the cache key.
	Shards int `json:"shards,omitempty"`
	// ShardParallel opens conservative lookahead windows. Engine dial:
	// not part of the cache key.
	ShardParallel bool `json:"shardpar,omitempty"`
}

// Default workload dials, matching `lbos run`.
const (
	DefaultReps  = 10
	DefaultScale = 1
	DefaultSeed  = 20100109
)

// ParseSpec decodes a wire spec strictly: unknown fields are errors, so
// a typo'd knob fails loudly instead of silently running the default.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("serve: invalid spec: %w", err)
	}
	// Trailing garbage after the document is also a client error.
	if dec.More() {
		return Spec{}, fmt.Errorf("serve: invalid spec: trailing data after JSON document")
	}
	return s, nil
}

// Canonicalize validates the spec and fills defaults, returning the
// canonical form every equivalent submission maps to. The rules:
//
//   - Experiment must name a registered experiment.
//   - Reps/Scale default to 10/1 and must be ≥ 1; Seed defaults to
//     20100109 (a seed of 0 means "default", like the CLI).
//   - Perturb is parsed (unknown families are errors) and rewritten to
//     a canonical family list: segments trimmed, empties dropped,
//     "all" expanded to "noise,hotplug,freq,storm", exact duplicates
//     deduplicated. Segment order is otherwise preserved — it carries
//     meaning ("noise,kthread" and "kthread,noise" pick different
//     noise presets, last one wins).
//   - Engine dials (Parallel, Shards, ShardParallel) are validated but
//     left as-is; Key ignores them.
func (s Spec) Canonicalize() (Spec, error) {
	if s.Experiment == "" {
		return Spec{}, fmt.Errorf("serve: spec has no experiment ID")
	}
	if _, err := exp.ByID(s.Experiment); err != nil {
		return Spec{}, err
	}
	if s.Reps == 0 {
		s.Reps = DefaultReps
	}
	if s.Reps < 1 {
		return Spec{}, fmt.Errorf("serve: reps %d out of range (want ≥ 1)", s.Reps)
	}
	if s.Scale == 0 {
		s.Scale = DefaultScale
	}
	if s.Scale < 1 {
		return Spec{}, fmt.Errorf("serve: scale %d out of range (want ≥ 1)", s.Scale)
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.Parallel < 0 {
		return Spec{}, fmt.Errorf("serve: parallel %d out of range (want ≥ 0)", s.Parallel)
	}
	if s.Shards < 0 {
		return Spec{}, fmt.Errorf("serve: shards %d out of range (want ≥ 0)", s.Shards)
	}
	canon, err := canonicalPerturb(s.Perturb)
	if err != nil {
		return Spec{}, err
	}
	s.Perturb = canon
	return s, nil
}

// canonicalPerturb validates a perturbation family list and rewrites it
// to the canonical form described on Canonicalize.
func canonicalPerturb(spec string) (string, error) {
	if _, err := perturb.Parse(spec); err != nil {
		return "", err
	}
	var out []string
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
			continue
		case "all":
			for _, fam := range []string{"noise", "hotplug", "freq", "storm"} {
				if !seen[fam] {
					seen[fam] = true
					out = append(out, fam)
				}
			}
		default:
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return strings.Join(out, ","), nil
}

// canonicalSpec is the exact byte layout hashed into the cache key: the
// workload dials only, every field explicit (no omitempty), so the
// canonical JSON is a total function of the workload identity.
type canonicalSpec struct {
	Experiment string `json:"experiment"`
	Reps       int    `json:"reps"`
	Scale      int    `json:"scale"`
	Seed       uint64 `json:"seed"`
	Perturb    string `json:"perturb"`
	Predict    bool   `json:"predict"`
	Trace      bool   `json:"trace"`
	Metrics    bool   `json:"metrics"`
}

// CanonicalJSON renders the workload identity of an already-canonical
// spec as deterministic bytes (struct field order, all fields present).
func (s Spec) CanonicalJSON() []byte {
	b, err := json.Marshal(canonicalSpec{
		Experiment: s.Experiment,
		Reps:       s.Reps,
		Scale:      s.Scale,
		Seed:       s.Seed,
		Perturb:    s.Perturb,
		Predict:    s.Predict,
		Trace:      s.Trace,
		Metrics:    s.Metrics,
	})
	if err != nil {
		// A struct of scalars cannot fail to marshal.
		panic(err)
	}
	return b
}

// keyDomain separates lbosd cache keys from any other SHA-256 use and
// versions the key derivation itself: changing the canonical layout
// bumps this string, invalidating every old key.
const keyDomain = "lbos-serve/v1"

// Key derives the content address of the spec's result: the SHA-256 of
// (key domain, code version, canonical workload JSON), hex-encoded. The
// code version is part of the key because the cache stores *outputs of
// the code*, not facts about the world: the same spec under a different
// build may legitimately produce different bytes, and a stale hit would
// silently serve the old build's results (DESIGN.md §11).
func (s Spec) Key(version string) string {
	h := sha256.New()
	h.Write([]byte(keyDomain))
	h.Write([]byte{0})
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(s.CanonicalJSON())
	return hex.EncodeToString(h.Sum(nil))
}

// Context builds the experiment context a canonical spec runs under.
// The interrupt channel aborts the grid between cells (per-request
// cancellation; see exp.Context.Interrupt).
func (s Spec) Context(interrupt <-chan struct{}) (*exp.Context, error) {
	pcfg, err := perturb.Parse(s.Perturb)
	if err != nil {
		return nil, err
	}
	return &exp.Context{
		Reps:          s.Reps,
		Scale:         s.Scale,
		Seed:          s.Seed,
		Parallelism:   s.Parallel,
		Perturb:       pcfg,
		Predict:       s.Predict,
		Shards:        s.Shards,
		ShardParallel: s.ShardParallel,
		Interrupt:     interrupt,
	}, nil
}

// CodeVersion resolves the running build's identity for cache keys: the
// VCS revision when the binary was built from a clean stamped checkout,
// else the module version, else the SHA-256 of the running executable.
// A dirty checkout's revision does not name its source, and a build
// without VCS info (tarball, -buildvcs=false) has no revision at all,
// so both fall back to the executable hash: two different binaries never
// share cache keys. The result is computed once per process. Server
// tests pin Config.Version instead, so key derivation stays testable.
func CodeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersion = resolveCodeVersion(debug.ReadBuildInfo, executableHash)
	})
	return codeVersion
}

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// resolveCodeVersion is CodeVersion with its two sources injected.
// exeHash is consulted only when the build info does not name the
// source; if it fails too, the identity degrades to "devel" (or the
// revision marked dirty), which is all the build can tell.
func resolveCodeVersion(readBuildInfo func() (*debug.BuildInfo, bool), exeHash func() (string, error)) string {
	fallback := "devel"
	if bi, ok := readBuildInfo(); ok {
		var rev, modified string
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				rev = st.Value
			case "vcs.modified":
				modified = st.Value
			}
		}
		switch {
		case rev != "" && modified != "true":
			return rev
		case rev != "":
			fallback = rev + "+dirty"
		case bi.Main.Version != "" && bi.Main.Version != "(devel)":
			return bi.Main.Version
		}
	}
	h, err := exeHash()
	if err != nil {
		return fallback
	}
	return fallback + "+exe." + h
}

// executableHash returns the hex SHA-256 of the running executable.
func executableHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
