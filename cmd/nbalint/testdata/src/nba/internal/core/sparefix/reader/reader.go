// Package reader reads sparefix's fill results from another simulation
// package: a field a best-effort job writes is flagged only when read across
// a package, and the job's own fields not at all.
package reader

import "nba/internal/core/sparefix"

// Frames sums each settled fill's own frame and its shared tally.
func Frames(fills []*sparefix.Fill) int {
	s := 0
	for _, f := range fills {
		s += f.Frame[0] + f.N + f.Tally.N
	}
	return s
}
