package ids

import (
	"nba/internal/batch"
	"nba/internal/hostcpu"
	"nba/internal/packet"
)

// hostGather reports whether a table of entries transitions runs
// matchGather: only on a CPU with AVX-512, and only if scanGather can index
// the table.
func hostGather(entries int) bool {
	return hostcpu.AVX512 && entries <= gatherMaxEntries
}

const (
	// gatherLanes is the width of one VPGATHERDD: sixteen 32-bit entries.
	gatherLanes = 16
	// gatherGroups is how many groups scanGather interleaves. A group is
	// one load chain (each step's indices come from the previous step's
	// gather), so one group alone waits out the gather latency; with four
	// the loop is bound by gather throughput instead.
	gatherGroups = 4
	// gatherMaxEntries bounds the tables scanGather takes: it indexes next
	// with signed 32-bit lanes.
	gatherMaxEntries = 1 << 31
)

// gatherGroup is one group of gatherLanes packets in the gather kernel.
// scanGather reads p and n and advances e and best in place.
type gatherGroup struct {
	p    [gatherLanes]*byte  // each lane's payload
	e    [gatherLanes]uint32 // the entry each lane has reached
	best [gatherLanes]int32  // the lowest output ID each lane has seen, -1 for none
	n    int                 // the lockstep length: the shortest payload, rounded down to 4 B; 0 for an unused group
}

// scanGather advances the lanes of every group of gs over their payload
// bytes [0, n), n the group's own lockstep length, four bytes per lane per
// step; end is the largest n. Each step gathers the lanes' next four bytes
// with VPGATHERQD (64-bit addresses, so no lane pointer is narrowed), then
// takes four VPGATHERDD steps through next. Lanes whose entry is flagged
// fold first[e>>8] into best with a masked gather and VPMINUD (-1 is the
// largest unsigned value). Only call it where hostGather(len(next)) holds.
//
//nba:hotpath
//go:noescape
func scanGather(next *uint32, first *int32, gs *[gatherGroups]gatherGroup, end int)

// matchGather is the AVX-512 form of matchBatch; only call it where
// hostGather(len(t.next)) holds. Live packets go in slot order into groups
// of gatherLanes, up to gatherGroups groups per scanGather call, and each
// lane finishes the bytes past its group's lockstep length on the single
// stream. Fewer than two full groups take the portable kernel: scanGather
// is bound by gather throughput, and an unused group's masked gathers cost
// nearly as much as a used one's. One group of 16 1024 B frames scans at
// ~1.1 µs/pkt this way against matchGo's ~0.9; two groups at ~0.8 against
// ~1.1. So the live packets after the last full group, and every batch
// with fewer than 2*gatherLanes of them, take matchFrom.
//
//nba:hotpath
func matchGather(t *scanTable, b *batch.Batch, ids *[batch.MaxBatchSize]int32) {
	var gs [gatherGroups]gatherGroup
	var slot [gatherGroups][gatherLanes]int
	left, i := b.Live(), 0
	for left >= 2*gatherLanes {
		groups, end := 0, 0
		for ; groups < gatherGroups && left >= gatherLanes; groups++ {
			g := &gs[groups]
			g.n = packet.MaxFrameLen
			for l := range g.p {
				for b.IsMasked(i) {
					i++
				}
				data := payloadOf(b.Packet(i))
				slot[groups][l] = i
				i++
				g.n = min(g.n, len(data)&^3)
				if len(data) > 0 {
					g.p[l] = &data[0]
				} else {
					g.p[l] = nil
				}
				g.e[l], g.best[l] = t.entry(0), t.first[0]
			}
			end = max(end, g.n)
			left -= gatherLanes
		}
		for k := groups; k < gatherGroups; k++ {
			gs[k].n = 0
		}
		if end > 0 {
			scanGather(&t.next[0], &t.first[0], &gs, end)
		}
		for k := range groups {
			g := &gs[k]
			for l, s := range slot[k] {
				ids[s] = t.scan(g.e[l], g.best[l], payloadOf(b.Packet(s))[g.n:])
			}
		}
	}
	t.matchFrom(b, ids, i)
}
