package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"nba/internal/golden"
)

// The automata of the built-in rule sets are pinned, in
// testdata/automata.golden, by state count and by a
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
	d, err := CompileRules(DefaultRegexRules)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/automata.golden", fmt.Sprintf("AC states %d digest %s\nDFA states %d digest %s\n",
		ac.States(), ac.digest(t), d.States(), d.digest(t)))
}
