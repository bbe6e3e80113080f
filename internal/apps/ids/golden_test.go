package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// The automata of the built-in rule sets are pinned by state count and by a
// digest of the flat table's logical content: for every state in numbering
// order, the 256 successor states, then the output (AC: the sorted
// pattern-ID list; DFA: the lowest accepted rule ID or -1). State numbering
// feeds every golden trace digest and benchmark fingerprint through the
// match results, so a construction change must reproduce these values
// exactly.

func putI32(h hash.Hash, v int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	h.Write(b[:])
}

// successors hashes state s's 256 successor states, decoded from the flat
// table, and checks each entry's output flag against first.
func (t *scanTable) successors(tb testing.TB, h hash.Hash, s int) {
	for c := 0; c < 256; c++ {
		e := t.next[s<<8|c]
		to := int32(e >> 8)
		if e&0xFF != e&1 || (e&1 != 0) != (t.first[to] >= 0) {
			tb.Fatalf("state %d byte %d: entry %#x disagrees with first[%d] = %d", s, c, e, to, t.first[to])
		}
		putI32(h, to)
	}
}

func (a *AC) digest(tb testing.TB) string {
	h := sha256.New()
	for s := range a.out {
		a.successors(tb, h, s)
		putI32(h, int32(len(a.out[s])))
		for _, id := range a.out[s] {
			putI32(h, id)
		}
		if len(a.out[s]) > 0 && a.first[s] != a.out[s][0] {
			tb.Fatalf("state %d: first = %d, out = %v", s, a.first[s], a.out[s])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (d *DFA) digest(tb testing.TB) string {
	h := sha256.New()
	for s := range d.first {
		d.successors(tb, h, s)
		putI32(h, d.first[s])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestDefaultAutomataGolden(t *testing.T) {
	ac, err := BuildAC(DefaultSignatures)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ac.States(), 518; got != want {
		t.Errorf("AC states = %d, want %d", got, want)
	}
	if got, want := ac.digest(t), "79a3b077e49d5d3f5c8f92b6e7842ebd36afbe4dbf1ce41318520a1033d258e8"; got != want {
		t.Errorf("AC digest = %s, want %s", got, want)
	}
	d, err := CompileRules(DefaultRegexRules)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.States(), 806; got != want {
		t.Errorf("DFA states = %d, want %d", got, want)
	}
	if got, want := d.digest(t), "8b273a76e99fc5def7f5a1ca2605cf0ffed08d4154f441a69c816253db37a656"; got != want {
		t.Errorf("DFA digest = %s, want %s", got, want)
	}
}
