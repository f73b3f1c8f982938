package serve

import (
	"errors"
	"runtime/debug"
	"strings"
	"testing"
)

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"experiment":"fig1","repz":3}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"experiment":"fig1"} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
	s, err := ParseSpec([]byte(`{"experiment":"fig1","reps":3,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Experiment != "fig1" || s.Reps != 3 || s.Seed != 7 {
		t.Errorf("parsed %+v", s)
	}
}

func TestCanonicalizeDefaultsAndValidation(t *testing.T) {
	s, err := Spec{Experiment: "fig1"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Reps != DefaultReps || s.Scale != DefaultScale || s.Seed != DefaultSeed {
		t.Errorf("defaults not filled: %+v", s)
	}

	for _, bad := range []Spec{
		{},                                      // no experiment
		{Experiment: "no-such-experiment"},      // unregistered
		{Experiment: "fig1", Reps: -1},          // bad reps
		{Experiment: "fig1", Scale: -2},         // bad scale
		{Experiment: "fig1", Perturb: "zap"},    // unknown family
		{Experiment: "fig1", Shards: -1},        // bad shards
		{Experiment: "fig1", Parallel: -3},      // bad parallel
	} {
		if _, err := bad.Canonicalize(); err == nil {
			t.Errorf("spec %+v canonicalized without error", bad)
		}
	}

	// Canonicalization is idempotent.
	again, err := s.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if again != s {
		t.Errorf("canonicalize not idempotent: %+v vs %+v", again, s)
	}
}

func TestCanonicalPerturb(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{" noise , hotplug ", "noise,hotplug"},
		{"all", "noise,hotplug,freq,storm"},
		{"noise,noise,freq", "noise,freq"},
		// Order is preserved: noise vs kthread pick different presets
		// and the last mention wins inside perturb.Parse.
		{"kthread,noise", "kthread,noise"},
	}
	for _, c := range cases {
		got, err := canonicalPerturb(c.in)
		if err != nil {
			t.Errorf("canonicalPerturb(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("canonicalPerturb(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := canonicalPerturb("noise,zap"); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestKeyCoversWorkloadNotEngine(t *testing.T) {
	base, err := Spec{Experiment: "fig1", Reps: 2, Scale: 8}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key := base.Key("v1")

	// Engine dials do not move the key: the determinism contract says
	// they cannot change one output byte.
	engine := base
	engine.Parallel, engine.Shards, engine.ShardParallel = 8, 4, true
	if engine.Key("v1") != key {
		t.Error("engine dials changed the cache key")
	}

	// Workload dials and the code version do.
	for _, c := range []struct {
		name  string
		other string
	}{
		{"seed", func() string { s := base; s.Seed = 99; return s.Key("v1") }()},
		{"reps", func() string { s := base; s.Reps = 3; return s.Key("v1") }()},
		{"scale", func() string { s := base; s.Scale = 4; return s.Key("v1") }()},
		{"perturb", func() string { s := base; s.Perturb = "noise"; return s.Key("v1") }()},
		{"predict", func() string { s := base; s.Predict = true; return s.Key("v1") }()},
		{"trace", func() string { s := base; s.Trace = true; return s.Key("v1") }()},
		{"metrics", func() string { s := base; s.Metrics = true; return s.Key("v1") }()},
		{"version", base.Key("v2")},
	} {
		if c.other == key {
			t.Errorf("changing %s did not change the cache key", c.name)
		}
	}

	// Keys are stable across derivations.
	if base.Key("v1") != key {
		t.Error("key derivation is not deterministic")
	}
	if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
		t.Errorf("key %q is not lowercase hex SHA-256", key)
	}
}

func TestCanonicalJSONIsTotal(t *testing.T) {
	s, err := Spec{Experiment: "fig1"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	got := string(s.CanonicalJSON())
	want := `{"experiment":"fig1","reps":10,"scale":1,"seed":20100109,"perturb":"","predict":false,"trace":false,"metrics":false}`
	if got != want {
		t.Errorf("canonical JSON\n got %s\nwant %s", got, want)
	}
}

func TestCodeVersionResolution(t *testing.T) {
	info := func(version string, settings ...string) func() (*debug.BuildInfo, bool) {
		return func() (*debug.BuildInfo, bool) {
			bi := &debug.BuildInfo{Main: debug.Module{Version: version}}
			for i := 0; i+1 < len(settings); i += 2 {
				bi.Settings = append(bi.Settings, debug.BuildSetting{Key: settings[i], Value: settings[i+1]})
			}
			return bi, true
		}
	}
	noInfo := func() (*debug.BuildInfo, bool) { return nil, false }
	exe := func(h string) func() (string, error) {
		return func() (string, error) { return h, nil }
	}
	exeFails := func() (string, error) { return "", errors.New("no executable") }
	for _, c := range []struct {
		name string
		read func() (*debug.BuildInfo, bool)
		hash func() (string, error)
		want string
	}{
		{"clean checkout", info("(devel)", "vcs.revision", "abc123", "vcs.modified", "false"), exeFails, "abc123"},
		{"dirty checkout", info("(devel)", "vcs.revision", "abc123", "vcs.modified", "true"), exe("e1"), "abc123+dirty+exe.e1"},
		{"module version", info("v1.2.3"), exeFails, "v1.2.3"},
		{"no vcs info", info("(devel)"), exe("e1"), "devel+exe.e1"},
		{"no build info", noInfo, exe("e2"), "devel+exe.e2"},
		{"no vcs, unreadable executable", info("(devel)"), exeFails, "devel"},
		{"dirty, unreadable executable", info("", "vcs.revision", "abc123", "vcs.modified", "true"), exeFails, "abc123+dirty"},
	} {
		if got := resolveCodeVersion(c.read, c.hash); got != c.want {
			t.Errorf("%s: version %q, want %q", c.name, got, c.want)
		}
	}
	// The bug this guards: two different binaries built without VCS info
	// (or from different dirty trees) must not share cache keys.
	for _, read := range []func() (*debug.BuildInfo, bool){
		info("(devel)"), info("(devel)", "vcs.revision", "abc123", "vcs.modified", "true"),
	} {
		if resolveCodeVersion(read, exe("e1")) == resolveCodeVersion(read, exe("e2")) {
			t.Error("different executables resolve to the same code version")
		}
	}
}

func TestCodeVersionIsMemoized(t *testing.T) {
	v := CodeVersion()
	if v == "" || v == "devel" {
		t.Fatalf("code version %q does not identify the test binary", v)
	}
	if CodeVersion() != v {
		t.Error("code version changed between calls")
	}
	h, err := executableHash()
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 64 || strings.Trim(h, "0123456789abcdef") != "" {
		t.Errorf("executable hash %q is not lowercase hex SHA-256", h)
	}
}
