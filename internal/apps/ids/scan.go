package ids

import "nba/internal/batch"

// scanTable is the one scan representation of both automata (AC and the
// regex DFA): a flat transition table plus, per state, the lowest output ID.
//
// An entry is the successor state pre-multiplied by 256 (so the next index
// is entry+byte, one add and one load) with bit 0 set when the successor has
// output. The per-byte loop therefore touches nothing but next; first is
// read only on the rare flagged entry.
type scanTable struct {
	next   []uint32 // next[s<<8|c] = s'<<8 | hasOutput(s')
	first  []int32  // lowest output ID of each state, -1 for none
	gather bool     // matchBatch runs matchGather, not matchGo (hostGather's answer)
}

// newScanTable flattens a construction-time transition table. The caller
// does not retain rows.
func newScanTable(rows [][256]int32, first []int32) scanTable {
	t := scanTable{next: make([]uint32, len(rows)<<8), first: first}
	t.gather = hostGather(len(t.next))
	for s := range rows {
		for c, to := range rows[s] {
			t.next[s<<8|c] = t.entry(to)
		}
	}
	return t
}

// entry encodes state s as a table entry (and as the stream's start value
// for s = 0).
func (t *scanTable) entry(s int32) uint32 {
	e := uint32(s) << 8
	if t.first[s] >= 0 {
		e |= 1
	}
	return e
}

// lower folds the output of flagged entry e into best (lowest ID wins).
func (t *scanTable) lower(best int32, e uint32) int32 {
	if id := t.first[e>>8]; best < 0 || id < best {
		return id
	}
	return best
}

// scan is the single-stream kernel: it advances one stream from entry e
// over data and returns the lowest output ID seen, starting from best.
//
//nba:hotpath
func (t *scanTable) scan(e uint32, best int32, data []byte) int32 {
	next := t.next
	for _, c := range data {
		e = next[e&^1+uint32(c)]
		if e&1 != 0 {
			best = t.lower(best, e)
		}
	}
	return best
}

// Match returns the lowest output ID (AC: pattern ID, DFA: rule ID) found
// anywhere in data, or -1.
func (t *scanTable) Match(data []byte) int {
	return int(t.scan(t.entry(0), t.first[0], data))
}

// scanWidth is the number of packets the portable batch kernel advances in
// lockstep. Each stream is a serial load chain (the next index depends on
// the loaded entry), so one stream leaves the load ports idle for the whole
// L1/L2 latency; independent streams overlap. Four fits the amd64 register
// file (4 entries + 4 data pointers + table + index): 64 x 1010 B scan at
// ~0.9 ns/B per table this way, against ~2.9 ns/B single-stream (Sapphire
// Rapids). Wider needs the lanes in vector registers, which is the gather
// kernel's job (scan_amd64.go).
const scanWidth = 4

// matchBatch is the batch kernel: for every live slot i of b it stores in
// ids[i] what Match would return for the packet's payload, and it leaves
// every other slot of ids alone. It has two forms, which differ in speed
// only: matchGather where hostGather allows, matchGo elsewhere. The tests
// hold each to the same answers.
//
//nba:hotpath
func (t *scanTable) matchBatch(b *batch.Batch, ids *[batch.MaxBatchSize]int32) {
	if t.gather {
		matchGather(t, b, ids)
		return
	}
	matchGo(t, b, ids)
}

// matchGo is the portable form of matchBatch.
//
//nba:hotpath
func matchGo(t *scanTable, b *batch.Batch, ids *[batch.MaxBatchSize]int32) {
	t.matchFrom(b, ids, 0)
}

// matchFrom is the portable kernel over the live slots of b from slot from
// on. Live packets are taken scanWidth at a time in slot order; a trailing
// partial group goes through the single stream.
//
//nba:hotpath
func (t *scanTable) matchFrom(b *batch.Batch, ids *[batch.MaxBatchSize]int32, from int) {
	var slot [scanWidth]int
	var data [scanWidth][]byte
	n := 0
	for i := from; i < b.Count(); i++ {
		if b.IsMasked(i) {
			continue
		}
		slot[n], data[n] = i, payloadOf(b.Packet(i))
		if n++; n == scanWidth {
			ids[slot[0]], ids[slot[1]], ids[slot[2]], ids[slot[3]] = t.scanGroup(&data)
			n = 0
		}
	}
	for k := 0; k < n; k++ {
		ids[slot[k]] = int32(t.Match(data[k]))
	}
}

// scanGroup advances scanWidth streams in lockstep over their common length
// and finishes each longer stream alone from the state it reached. The tail
// is single-stream on purpose: regrouping the survivors would need a
// second lockstep loop per width, and on fixed-size traffic there is no
// tail at all.
//
//nba:hotpath
func (t *scanTable) scanGroup(data *[scanWidth][]byte) (int32, int32, int32, int32) {
	n := len(data[0])
	for _, d := range data[1:] {
		n = min(n, len(d))
	}
	p0, p1, p2, p3 := data[0][:n], data[1][:n], data[2][:n], data[3][:n]
	next := t.next
	e0 := t.entry(0)
	e1, e2, e3 := e0, e0, e0
	// best lives in memory on purpose: it is touched only on flagged
	// entries, and keeping it out of registers leaves room for the four
	// states and four data pointers the loop does need every byte.
	var best [scanWidth]int32
	for k := range best {
		best[k] = t.first[0]
	}
	for i := range p0 {
		e0 = next[e0&^1+uint32(p0[i])]
		e1 = next[e1&^1+uint32(p1[i])]
		e2 = next[e2&^1+uint32(p2[i])]
		e3 = next[e3&^1+uint32(p3[i])]
		if (e0|e1|e2|e3)&1 != 0 {
			if e0&1 != 0 {
				best[0] = t.lower(best[0], e0)
			}
			if e1&1 != 0 {
				best[1] = t.lower(best[1], e1)
			}
			if e2&1 != 0 {
				best[2] = t.lower(best[2], e2)
			}
			if e3&1 != 0 {
				best[3] = t.lower(best[3], e3)
			}
		}
	}
	return t.scan(e0, best[0], data[0][n:]), t.scan(e1, best[1], data[1][n:]),
		t.scan(e2, best[2], data[2][n:]), t.scan(e3, best[3], data[3][n:])
}
