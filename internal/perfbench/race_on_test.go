//go:build race

package perfbench

// raceEnabled reports whether the race detector is compiled in. The
// race runtime allocates on its own, so the zero-allocation tests keep
// running their scenarios under it but skip the bound.
const raceEnabled = true
