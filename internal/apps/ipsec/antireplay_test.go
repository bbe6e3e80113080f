package ipsec

import (
	"testing"
	"testing/quick"

	"nba/internal/apps/apptest"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
)

func TestReplayWindowBasics(t *testing.T) {
	var w ReplayWindow
	if w.Check(0) {
		t.Error("seq 0 accepted")
	}
	if !w.Check(1) || !w.Check(2) || !w.Check(3) {
		t.Error("fresh ascending sequence rejected")
	}
	if w.Check(2) {
		t.Error("replay accepted")
	}
	if !w.Check(100) {
		t.Error("forward jump rejected")
	}
	if w.Highest() != 100 {
		t.Errorf("highest = %d, want 100", w.Highest())
	}
	// Within window, unseen.
	if !w.Check(50) {
		t.Error("in-window unseen seq rejected")
	}
	if w.Check(50) {
		t.Error("in-window replay accepted")
	}
	// Older than window.
	if w.Check(100 - WindowSize) {
		t.Error("stale seq accepted")
	}
	// Edge: newest-window boundary.
	if !w.Check(100 - WindowSize + 1) {
		t.Error("oldest in-window seq rejected")
	}
}

func TestReplayWindowLargeJumpResets(t *testing.T) {
	var w ReplayWindow
	w.Check(5)
	if !w.Check(5 + 10*WindowSize) {
		t.Error("large forward jump rejected")
	}
	// Everything in the old region is now stale.
	if w.Check(6) {
		t.Error("stale seq after jump accepted")
	}
}

func TestReplayWindowNeverAcceptsTwiceProperty(t *testing.T) {
	// Property: across any sequence of Check calls, a given seq is accepted
	// at most once.
	f := func(seqs []uint16) bool {
		var w ReplayWindow
		accepted := map[uint32]int{}
		for _, s16 := range seqs {
			s := uint32(s16) + 1
			if w.Check(s) {
				accepted[s]++
				if accepted[s] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReplayWindowMonotoneStreamAllAccepted(t *testing.T) {
	var w ReplayWindow
	for s := uint32(1); s <= 10000; s++ {
		if !w.Check(s) {
			t.Fatalf("in-order seq %d rejected", s)
		}
	}
}

func TestDecapElementRejectsReplays(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 4, Rand: rng.New(1)}
	pc := &element.ProcContext{NodeLocal: nl, Rand: rng.New(2), CostScale: 1}
	enc, aes, mac, dec := &ESPEncap{}, newStage(t, "IPsecAES"), newStage(t, "IPsecHMAC"), &ESPDecap{}
	for _, e := range []element.Element{enc, aes, mac, dec} {
		if err := e.Configure(cc, []string{"sas=8", "seed=3"}); err != nil {
			t.Fatal(err)
		}
	}
	mkEncrypted := func() *packet.Packet {
		p := mkPkt(t, 128)
		for _, e := range []element.Element{enc, aes, mac} {
			if r := apptest.RunOne(e, pc, p); r != 0 {
				t.Fatalf("%s failed", e.Class())
			}
		}
		return p
	}
	p1 := mkEncrypted()
	// A byte-exact replay of p1.
	replay := &packet.Packet{}
	replay.CopyFrom(p1.Data())

	if r := dec.Process(pc, p1); r != 0 {
		t.Fatal("original frame rejected")
	}
	if r := dec.Process(pc, replay); r != element.Drop {
		t.Error("replayed frame accepted")
	}
	// The next legitimate packet of the flow still passes.
	p2 := mkEncrypted()
	if r := dec.Process(pc, p2); r != 0 {
		t.Error("subsequent legitimate frame rejected")
	}
}
