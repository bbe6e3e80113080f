package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// The automata of the built-in rule sets are pinned by state count and by a
// digest of their logical content: for every state in numbering order, the
// 256 successor states, then the output (AC: the sorted pattern-ID list;
// DFA: the lowest accepted rule ID or -1). State numbering feeds every
// golden trace digest and benchmark fingerprint through the match results,
// so a construction change must reproduce these values exactly.

func putI32(h hash.Hash, v int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	h.Write(b[:])
}

func (a *AC) digest() string {
	h := sha256.New()
	for s := range a.next {
		for c := 0; c < 256; c++ {
			putI32(h, a.next[s][c])
		}
		putI32(h, int32(len(a.out[s])))
		for _, id := range a.out[s] {
			putI32(h, id)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (d *DFA) digest() string {
	h := sha256.New()
	for s := range d.next {
		for c := 0; c < 256; c++ {
			putI32(h, d.next[s][c])
		}
		putI32(h, d.accept[s])
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
	if got, want := ac.digest(), "79a3b077e49d5d3f5c8f92b6e7842ebd36afbe4dbf1ce41318520a1033d258e8"; got != want {
		t.Errorf("AC digest = %s, want %s", got, want)
	}
	d, err := CompileRules(DefaultRegexRules)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.States(), 806; got != want {
		t.Errorf("DFA states = %d, want %d", got, want)
	}
	if got, want := d.digest(), "8b273a76e99fc5def7f5a1ca2605cf0ffed08d4154f441a69c816253db37a656"; got != want {
		t.Errorf("DFA digest = %s, want %s", got, want)
	}
}
