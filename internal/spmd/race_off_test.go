//go:build !race

package spmd_test

const raceEnabled = false
