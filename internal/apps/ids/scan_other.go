//go:build !amd64

package ids

import "nba/internal/batch"

// hostGather reports whether a table runs matchGather: off amd64, never.
func hostGather(entries int) bool { return false }

// matchGather has no gather form off amd64: it is the portable kernel.
func matchGather(t *scanTable, b *batch.Batch, ids *[batch.MaxBatchSize]int32) {
	matchGo(t, b, ids)
}
