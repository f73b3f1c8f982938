//go:build race

package speedbal

// raceEnabled reports whether the race detector is compiled in. The
// race runtime allocates on its own, so the zero-allocation test keeps
// running its scenario under it but skips the bound.
const raceEnabled = true
