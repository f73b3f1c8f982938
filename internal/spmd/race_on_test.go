//go:build race

package spmd_test

// raceEnabled reports whether the race detector is compiled in. The
// race runtime allocates on its own, so allocation bounds are skipped
// under it.
const raceEnabled = true
