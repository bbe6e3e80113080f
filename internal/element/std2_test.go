package element

import (
	"testing"

	"nba/internal/packet"
)

func TestIPFilterRules(t *testing.T) {
	e := &IPFilter{}
	configure(t, e,
		"allow proto udp and dst port 53",
		"deny src net 10.0.0.0/8",
		"allow all")
	_, pc := newCtx()

	mk := func(src, dst uint32, dport uint16) *packet.Packet {
		p := &packet.Packet{}
		n := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, src, dst, 999, dport, 64)
		p.SetLength(n)
		return p
	}

	// Rule 1: udp/53 allowed even from 10/8.
	if r := e.Process(pc, mk(0x0A000001, 5, 53)); r != 0 {
		t.Errorf("udp/53 from 10/8: %d, want allow", r)
	}
	// Rule 2: other traffic from 10/8 denied.
	if r := e.Process(pc, mk(0x0A000001, 5, 80)); r != Drop {
		t.Errorf("udp/80 from 10/8: %d, want deny", r)
	}
	// Rule 3: everything else allowed.
	if r := e.Process(pc, mk(0xC0A80001, 5, 80)); r != 0 {
		t.Errorf("udp/80 from 192.168/16: %d, want allow", r)
	}
	if e.Allowed != 2 || e.Denied != 1 {
		t.Errorf("Allowed=%d Denied=%d, want 2,1", e.Allowed, e.Denied)
	}

	// Non-IPv4 frames are denied.
	v6 := mkIPv6Packet(t, 64)
	if r := e.Process(pc, v6); r != Drop {
		t.Error("IPv6 frame not denied")
	}
}

func TestIPFilterDefaultDeny(t *testing.T) {
	e := &IPFilter{}
	configure(t, e, "allow dst port 443")
	_, pc := newCtx()
	p := mkIPv4Packet(t, 64) // dport 53
	if r := e.Process(pc, p); r != Drop {
		t.Error("unmatched packet not denied by default")
	}
}

func TestIPFilterConfigErrors(t *testing.T) {
	cc, _ := newCtx()
	bad := [][]string{
		nil,
		{"frobnicate all"},
		{"allow"},
		{"allow proto sctp"},
		{"allow src port notaport"},
		{"allow src port 70000"},
		{"allow src net 10.0.0.0"},
		{"allow src net 10.0.0.0/33"},
		{"allow src net 10.0.300.0/8"},
		{"allow src net 10.0.0/8"},
		{"allow and proto udp"},
		{"allow wibble wobble"},
	}
	for _, args := range bad {
		if err := (&IPFilter{}).Configure(cc, args); err == nil {
			t.Errorf("config %v accepted", args)
		}
	}
}

func TestPaint(t *testing.T) {
	paint := &Paint{}
	configure(t, paint, "2")
	_, pc := newCtx()
	p := mkIPv4Packet(t, 64)
	if r := paint.Process(pc, p); r != 0 {
		t.Fatalf("Process = %d, want 0", r)
	}
	if c := p.Anno[packet.AnnoUser]; c != 2 {
		t.Errorf("painted color %d, want 2", c)
	}
}

func TestPaintConfigErrors(t *testing.T) {
	cc, _ := newCtx()
	for _, args := range [][]string{nil, {"256"}, {"x"}, {"1", "2"}} {
		if err := (&Paint{}).Configure(cc, args); err == nil {
			t.Errorf("Paint config %v accepted", args)
		}
	}
}

func TestNewElementsRegistered(t *testing.T) {
	for _, class := range []string{"IPFilter", "Paint"} {
		if _, err := NewByClass(class); err != nil {
			t.Errorf("NewByClass(%q): %v", class, err)
		}
	}
}
