//go:build !race

package speedbal

const raceEnabled = false
