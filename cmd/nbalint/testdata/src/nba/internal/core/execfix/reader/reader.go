// Package reader reads execfix's job results from another simulation
// package: a field a job writes is flagged only when read across a package.
package reader

import "nba/internal/core/execfix"

// Sum reads each joined job's own results and its shared tally.
func Sum(jobs []*execfix.Job) int {
	s := 0
	for _, j := range jobs {
		s += j.Out[0] + j.Out[1] + j.Shared.N
	}
	return s
}
