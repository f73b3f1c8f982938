package exp

import (
	"strings"
	"testing"

	"repro/internal/perturb"
)

// -perturb composes onto every cell that does not set its own
// perturbation. open-bakeoff and ext-measure used to ignore it, so a
// perturbed request rendered the clean tables.
func TestPerturbReachesEveryCell(t *testing.T) {
	noise, err := perturb.Parse("noise")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"open-bakeoff", "ext-measure"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		clean := renderAll(e.Run(&Context{Reps: 1, Scale: 32, Seed: 20100109}))
		noisy := renderAll(e.Run(&Context{Reps: 1, Scale: 32, Seed: 20100109, Perturb: noise}))
		if clean == noisy {
			t.Errorf("%s: -perturb noise left the tables unchanged", id)
		}
	}
}

func TestContextValidate(t *testing.T) {
	cases := []struct {
		name    string
		edit    func(c *Context)
		wantErr string
	}{
		{"minimal", func(*Context) {}, ""},
		{"engine dials", func(c *Context) { c.Parallelism, c.Shards = 8, 4 }, ""},
		{"zero reps", func(c *Context) { c.Reps = 0 }, "reps 0"},
		{"negative reps", func(c *Context) { c.Reps = -1 }, "reps -1"},
		{"zero scale", func(c *Context) { c.Scale = 0 }, "scale 0"},
		{"negative parallel", func(c *Context) { c.Parallelism = -1 }, "parallel -1"},
		{"negative shards", func(c *Context) { c.Shards = -3 }, "shards -3"},
	}
	for _, tc := range cases {
		c := &Context{Reps: 1, Scale: 1}
		tc.edit(c)
		err := c.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.wantErr)
		}
	}
	if err := DefaultContext().Validate(); err != nil {
		t.Errorf("DefaultContext: %v", err)
	}
	if err := QuickContext().Validate(); err != nil {
		t.Errorf("QuickContext: %v", err)
	}
}
