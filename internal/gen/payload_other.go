//go:build !amd64

package gen

// hostVec reports whether bursts may take fillVector: off amd64, never.
func hostVec() bool { return false }

// fillVector has no form off amd64; hostVec keeps every burst off it.
func fillVector(x *[vecWidth]uint64, p *[vecWidth]*byte, n int) {
	panic("gen: fillVector has no routine on this GOARCH")
}
