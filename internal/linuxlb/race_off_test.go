//go:build !race

package linuxlb_test

const raceEnabled = false
