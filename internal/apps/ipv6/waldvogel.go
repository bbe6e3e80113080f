// Package ipv6 implements the IPv6 router application: longest prefix
// matching by binary search on hash tables organised by prefix length
// (Waldvogel, Varghese, Turner, Plattner — the algorithm the paper's IPv6
// lookup uses, §4.1), and the offloadable LookupIP6Route element.
package ipv6

import (
	"fmt"
	"math/bits"

	"nba/internal/packet"
	"nba/internal/rng"
)

// MissNextHop is returned by Lookup when no route matches.
const MissNextHop = 0xFFFF

// Route is one IPv6 FIB entry.
type Route struct {
	Prefix  packet.IPv6Addr
	PLen    int
	NextHop uint16
}

// Table performs binary search over prefix-length levels; with markers the
// search makes at most ceil(log2(#levels)) hash probes — at most 7 for the
// full 1..128 range, matching the paper's "at most seven random memory
// accesses".
//
// The hash tables of all levels are two flat open-addressing arrays — what
// a device kernel would be handed, where a Go map per level is not. A slot's
// word carries its level's tag and the precomputed result: the prefix's own
// next hop, or for a marker the best-matching prefix above it (Waldvogel's
// marker optimisation), so the search never backtracks.
type Table struct {
	levels []level               // one per distinct prefix length, ascending
	short  flat[uint64]          // levels up to /64: the masked high word
	long   flat[packet.IPv6Addr] // longer levels: the high word and the masked low word
	def    uint16                // next hop of the zero-length (default) route
	hasDef bool
	routes []Route
}

// level is one prefix length with its key masks and slot tag. loMask is
// zero exactly for the levels up to /64, whose keys live in short.
type level struct {
	plen           int
	hiMask, loMask uint64
	tag            uint64 // level index + 1: never zero, so w == 0 marks an empty slot
}

// A slot word is tag | result<<resultShift.
const (
	tagMask     = 0xFF
	resultShift = 16
)

// NewTable builds the search structure from routes, in route order.
func NewTable(routes []Route) (*Table, error) {
	t := &Table{routes: routes}
	var present [129]bool
	for _, r := range routes {
		if r.PLen < 0 || r.PLen > 128 {
			return nil, fmt.Errorf("ipv6: prefix length %d out of range", r.PLen)
		}
		if r.PLen == 0 {
			t.def = r.NextHop
			t.hasDef = true
			continue
		}
		present[r.PLen] = true
	}
	var levelIdx [129]int
	for l := 1; l <= 128; l++ {
		if !present[l] {
			continue
		}
		levelIdx[l] = len(t.levels)
		lv := level{plen: l, hiMask: ^uint64(0), tag: uint64(len(t.levels) + 1)}
		if l <= 64 {
			lv.hiMask <<= 64 - l
		} else {
			lv.loMask = ^uint64(0) << (128 - l)
		}
		t.levels = append(t.levels, lv)
	}
	t.short.hash, t.long.hash = hashHi, hashAddr
	t.short.resize(1 << 10)
	t.long.resize(1 << 4)

	// Real prefixes first: a later route of the same prefix overwrites an
	// earlier one's next hop.
	for _, r := range routes {
		if r.PLen != 0 {
			t.set(levelIdx[r.PLen], r.Prefix, r.NextHop)
		}
	}

	// Then markers along each prefix's binary search path, carrying the
	// best-matching prefix; a key that is already a prefix or a marker keeps
	// its result. A binary trie over all prefixes computes the best match in
	// O(plen) instead of O(#routes) each — with Internet-scale FIBs the
	// linear scan is quadratic overall.
	trie := newBMPTrie(routes)
	for _, r := range routes {
		if r.PLen == 0 {
			continue
		}
		lo, hi := 0, len(t.levels)-1
		target := levelIdx[r.PLen]
		for lo <= hi {
			mid := (lo + hi) / 2
			if mid == target {
				break
			}
			if mid < target {
				// The search must be steered right past mid: plant a marker
				// for this prefix's mid-length key.
				if _, ok := t.find(mid, r.Prefix); !ok {
					plen := t.levels[mid].plen
					key := r.Prefix.Mask(plen)
					t.set(mid, key, trie.bmpAtMost(key, plen, t.defaultNH()))
				}
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
	}
	return t, nil
}

// set stores result under addr's key at level i, replacing any result the
// key already has.
func (t *Table) set(i int, addr packet.IPv6Addr, result uint16) {
	lv := &t.levels[i]
	w := lv.tag | uint64(result)<<resultShift
	if lv.loMask == 0 {
		t.short.set(addr.Hi&lv.hiMask, w)
	} else {
		t.long.set(packet.IPv6Addr{Hi: addr.Hi, Lo: addr.Lo & lv.loMask}, w)
	}
}

// find probes level i for addr's key and returns the key's result.
//
//nba:hotpath
func (t *Table) find(i int, addr packet.IPv6Addr) (uint16, bool) {
	lv := &t.levels[i]
	var w uint64
	if lv.loMask == 0 {
		hi := addr.Hi & lv.hiMask
		w = t.short.slot(hi, hashHi(hi, lv.tag), lv.tag).w
	} else {
		k := packet.IPv6Addr{Hi: addr.Hi, Lo: addr.Lo & lv.loMask}
		w = t.long.slot(k, hashAddr(k, lv.tag), lv.tag).w
	}
	return uint16(w >> resultShift), w != 0
}

// hashHi / hashAddr hash a key and its level tag; a table takes the top bits.
func hashHi(hi, tag uint64) uint64 { return (hi ^ tag*0x9E3779B97F4A7C15) * 0xD6E8FEB86659FD93 }

func hashAddr(a packet.IPv6Addr, tag uint64) uint64 { return hashHi(a.Hi^a.Lo*0xC2B2AE3D27D4EB4F, tag) }

// flat is an open-addressing (linear probing) table of (key, word) slots,
// at most half full; a zero word marks an empty slot. Lookups pass the key's
// hash in; hash itself is only called to rehash on growth.
type flat[K comparable] struct {
	slots []entry[K]
	shift uint // 64 - log2(len(slots))
	n     int
	hash  func(K, uint64) uint64
}

type entry[K comparable] struct {
	k K
	w uint64
}

// slot returns the slot holding (k, tag), or the empty slot that ends its
// probe sequence.
//
//nba:hotpath
func (f *flat[K]) slot(k K, h, tag uint64) *entry[K] {
	mask := len(f.slots) - 1
	for i := int(h >> f.shift); ; i = (i + 1) & mask {
		s := &f.slots[i]
		if s.w == 0 || s.k == k && s.w&tagMask == tag {
			return s
		}
	}
}

func (f *flat[K]) set(k K, w uint64) {
	if 2*(f.n+1) > len(f.slots) {
		f.resize(2 * len(f.slots))
	}
	tag := w & tagMask
	s := f.slot(k, f.hash(k, tag), tag)
	if s.w == 0 {
		f.n++
	}
	*s = entry[K]{k, w}
}

// resize rehashes into n slots (a power of two), in slot order.
func (f *flat[K]) resize(n int) {
	old := f.slots
	*f = flat[K]{slots: make([]entry[K], n), shift: uint(64 - bits.TrailingZeros(uint(n))), hash: f.hash}
	for _, s := range old {
		if s.w != 0 {
			f.set(s.k, s.w)
		}
	}
}

// bmpTrie is a binary trie over route prefixes used at build time to
// compute marker best-matching-prefix values efficiently.
type bmpTrie struct {
	child [2]*bmpTrie
	hasNH bool
	nh    uint16
}

func newBMPTrie(routes []Route) *bmpTrie {
	root := &bmpTrie{}
	for _, r := range routes {
		if r.PLen == 0 {
			continue
		}
		n := root
		for bit := 0; bit < r.PLen; bit++ {
			b := addrBit(r.Prefix, bit)
			if n.child[b] == nil {
				n.child[b] = &bmpTrie{}
			}
			n = n.child[b]
		}
		// Later routes of equal length overwrite earlier ones, matching
		// the hash-table insertion semantics.
		n.hasNH = true
		n.nh = r.NextHop
	}
	return root
}

// bmpAtMost returns the next hop of the longest prefix of addr with length
// <= maxLen, or def if none matches.
func (t *bmpTrie) bmpAtMost(addr packet.IPv6Addr, maxLen int, def uint16) uint16 {
	best := def
	n := t
	for bit := 0; bit < maxLen && n != nil; bit++ {
		n = n.child[addrBit(addr, bit)]
		if n != nil && n.hasNH {
			best = n.nh
		}
	}
	return best
}

func addrBit(a packet.IPv6Addr, bit int) int {
	if bit < 64 {
		return int(a.Hi >> (63 - bit) & 1)
	}
	return int(a.Lo >> (127 - bit) & 1)
}

func (t *Table) defaultNH() uint16 {
	if t.hasDef {
		return t.def
	}
	return MissNextHop
}

// Lookup returns the next hop for addr, or MissNextHop. Probes counts hash
// accesses for diagnostics.
func (t *Table) Lookup(addr packet.IPv6Addr) uint16 {
	nh, _ := t.LookupCounted(addr)
	return nh
}

// LookupCounted returns the next hop and the number of hash probes made.
//
//nba:hotpath
func (t *Table) LookupCounted(addr packet.IPv6Addr) (uint16, int) {
	best := t.defaultNH()
	lo, hi := 0, len(t.levels)-1
	probes := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		probes++
		nh, ok := t.find(mid, addr)
		if !ok {
			hi = mid - 1
			continue
		}
		best = nh
		lo = mid + 1
	}
	return best, probes
}

// NaiveLookup is the linear reference LPM for property tests.
func (t *Table) NaiveLookup(addr packet.IPv6Addr) uint16 {
	best := -1
	nh := MissNextHop
	for _, r := range t.routes {
		if addr.Mask(r.PLen) == r.Prefix.Mask(r.PLen) && r.PLen >= best {
			best = r.PLen
			nh = int(r.NextHop)
		}
	}
	if best == -1 && t.hasDef {
		return t.def
	}
	if best == -1 {
		return MissNextHop
	}
	return uint16(nh)
}

// Levels returns the number of distinct prefix-length levels.
func (t *Table) Levels() int { return len(t.levels) }

// RandomRoutes generates a synthetic IPv6 FIB with a default route and an
// Internet-like length mix (mostly /32../48, some /49../64 and /128).
func RandomRoutes(n int, numNextHops int, seed uint64) []Route {
	r := rng.New(seed)
	routes := []Route{{PLen: 0, NextHop: 0}} // default
	for i := 0; i < n; i++ {
		var plen int
		switch v := r.Float64(); {
		case v < 0.10:
			plen = 16 + r.Intn(16) // /16../31
		case v < 0.80:
			plen = 32 + r.Intn(17) // /32../48
		case v < 0.97:
			plen = 49 + r.Intn(16) // /49../64
		default:
			plen = 128
		}
		addr := packet.IPv6Addr{Hi: r.Uint64(), Lo: r.Uint64()}
		routes = append(routes, Route{
			Prefix:  addr.Mask(plen),
			PLen:    plen,
			NextHop: uint16(r.Intn(numNextHops)),
		})
	}
	return routes
}
