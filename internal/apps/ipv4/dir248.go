// Package ipv4 implements the IPv4 router application: DIR-24-8 longest
// prefix matching (Gupta, Lin, McKeown — the algorithm PacketShader's IPv4
// lookup uses, reused by the paper §4.1) and the offloadable IPLookup
// element.
package ipv4

import (
	"fmt"
	"sort"

	"nba/internal/rng"
)

// MissNextHop is returned by Lookup when no route matches.
const MissNextHop = 0xFFFF

// maxNextHop is the largest representable next hop (the top bit of a TBL24
// entry marks an extension into TBLlong).
const maxNextHop = 0x7FFE

// Route is one FIB entry.
type Route struct {
	Prefix  uint32
	PLen    int
	NextHop uint16
}

// Table is a DIR-24-8 lookup table: TBL24 holds one entry per /24; prefixes
// longer than 24 bits spill into 256-entry TBLlong blocks. Lookups make at
// most two dependent memory accesses (paper §4.1).
type Table struct {
	tbl24   []uint16 // 1<<24 entries
	tblLong []uint16 // blocks of 256
	routes  []Route  // kept for reference/naive comparison
}

const extFlag = 0x8000

// isExt reports whether a TBL24 entry points into TBLlong. MissNextHop
// (0xFFFF) also has the extension bit set, so it must be excluded; block
// IDs are capped below 0x7FFF to keep 0xFFFF unambiguous.
func isExt(e uint16) bool { return e&extFlag != 0 && e != MissNextHop }

// NewTable builds a table from routes. Routes are inserted in prefix-length
// order so longer prefixes override shorter ones, matching LPM semantics.
func NewTable(routes []Route) (*Table, error) {
	t := &Table{tbl24: make([]uint16, 1<<24)}
	for i := range t.tbl24 {
		t.tbl24[i] = MissNextHop
	}
	sorted := append([]Route(nil), routes...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].PLen < sorted[j].PLen })
	for _, r := range sorted {
		if err := t.insert(r); err != nil {
			return nil, err
		}
	}
	t.routes = sorted
	return t, nil
}

func (t *Table) insert(r Route) error {
	if r.PLen < 0 || r.PLen > 32 {
		return fmt.Errorf("ipv4: prefix length %d out of range", r.PLen)
	}
	if r.NextHop > maxNextHop {
		return fmt.Errorf("ipv4: next hop %d exceeds %d", r.NextHop, maxNextHop)
	}
	prefix := r.Prefix
	if r.PLen < 32 {
		prefix &= ^uint32(0) << (32 - r.PLen)
	}
	if r.PLen <= 24 {
		// Fill the covered /24 range; leave extended entries' TBLlong
		// blocks updated instead of clobbering the extension pointer.
		start := prefix >> 8
		count := uint32(1) << (24 - r.PLen)
		for i := uint32(0); i < count; i++ {
			idx := start + i
			if isExt(t.tbl24[idx]) {
				base := int(t.tbl24[idx]&^extFlag) * 256
				block := t.tblLong[base : base+256]
				for j := range block {
					// A later (longer) insert owns its slots; since we
					// insert short→long, overwrite everything here.
					block[j] = r.NextHop
				}
			} else {
				t.tbl24[idx] = r.NextHop
			}
		}
		return nil
	}
	// PLen 25..32: ensure a TBLlong block exists for the /24.
	idx := prefix >> 8
	var blockID uint16
	if isExt(t.tbl24[idx]) {
		blockID = t.tbl24[idx] &^ extFlag
	} else {
		if len(t.tblLong)/256 >= 0x7FFF {
			return fmt.Errorf("ipv4: TBLlong exhausted (%d blocks)", len(t.tblLong)/256)
		}
		blockID = uint16(len(t.tblLong) / 256)
		old := t.tbl24[idx]
		block := make([]uint16, 256)
		for j := range block {
			block[j] = old
		}
		t.tblLong = append(t.tblLong, block...)
		t.tbl24[idx] = extFlag | blockID
	}
	block := t.tblLong[int(blockID)*256 : int(blockID)*256+256]
	low := uint8(prefix)
	count := 1 << (32 - r.PLen)
	for j := 0; j < count; j++ {
		block[int(low)+j] = r.NextHop
	}
	return nil
}

// Lookup returns the next hop for addr, or MissNextHop.
func (t *Table) Lookup(addr uint32) uint16 {
	e := t.tbl24[addr>>8]
	if !isExt(e) {
		return e
	}
	return t.tblLong[uint32(e&^extFlag)*256+uint32(uint8(addr))]
}

// NaiveLookup performs linear longest-prefix match over the route list (the
// reference implementation for property tests).
func (t *Table) NaiveLookup(addr uint32) uint16 {
	best := -1
	var nh uint16 = MissNextHop
	for _, r := range t.routes {
		var mask uint32
		if r.PLen > 0 {
			mask = ^uint32(0) << (32 - r.PLen)
		}
		// >= so that, among equal-length duplicates, the later route wins —
		// matching the table's insertion order semantics.
		if addr&mask == r.Prefix&mask && r.PLen >= best {
			best = r.PLen
			nh = r.NextHop
		}
	}
	return nh
}

// RandomRoutes generates a synthetic FIB: a default route plus n random
// prefixes with an Internet-like length mix (mostly /16-/24, some longer).
func RandomRoutes(n int, numNextHops int, seed uint64) []Route {
	r := rng.New(seed)
	routes := []Route{{Prefix: 0, PLen: 0, NextHop: 0}} // default route
	for i := 0; i < n; i++ {
		var plen int
		switch v := r.Float64(); {
		case v < 0.05:
			plen = 8 + r.Intn(8) // /8../15
		case v < 0.85:
			plen = 16 + r.Intn(9) // /16../24
		default:
			plen = 25 + r.Intn(8) // /25../32
		}
		routes = append(routes, Route{
			Prefix:  r.Uint32() & (^uint32(0) << (32 - plen)),
			PLen:    plen,
			NextHop: uint16(r.Intn(numNextHops)),
		})
	}
	return routes
}
