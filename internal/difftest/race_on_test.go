//go:build race

package difftest

// raceEnabled reports whether the race detector is compiled in; the
// registry golden test checks only its traced subset under it (the
// detector slows the simulator ~10×, and the untraced digests gain
// nothing from it).
const raceEnabled = true
