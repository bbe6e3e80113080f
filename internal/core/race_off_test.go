//go:build !race

package core_test

// raceEnabled reports a -race build, under which the long oracles skip.
const raceEnabled = false
