package ipsec

import (
	"bytes"
	"testing"
	"testing/quick"

	"nba/internal/apps/apptest"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
)

func mkPkt(t *testing.T, frameLen int) *packet.Packet {
	t.Helper()
	p := &packet.Packet{}
	n := packet.BuildUDP4(p.Buf(), [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
		0x0A000001, 0x08080808, 1234, 53, frameLen)
	p.SetLength(n)
	// Recognisable payload.
	for i := packet.EthHdrLen + 28; i < frameLen; i++ {
		p.Buf()[i] = byte(i)
	}
	return p
}

func newDB(t *testing.T) *SADB {
	t.Helper()
	db, err := NewSADB(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEncapGeometry(t *testing.T) {
	db := newDB(t)
	p := mkPkt(t, 64)
	orig := append([]byte(nil), p.Data()...)
	idx, err := Encap(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx >= 64 {
		t.Errorf("SA index %d out of range", idx)
	}
	// 64-byte inner frame: inner=50, pad=(4-(50+2)%4)%4=0, new=64+44+2+12=122.
	if p.Length() != 122 {
		t.Errorf("encapsulated length = %d, want 122", p.Length())
	}
	outer := p.Data()[OuterIPOff:]
	if packet.IPv4Proto(outer) != packet.ProtoESP {
		t.Error("outer protocol not ESP")
	}
	if err := packet.CheckIPv4(outer); err != nil {
		t.Errorf("outer header invalid: %v", err)
	}
	// Inner packet (still plaintext) preserved in the payload region.
	if !bytes.Equal(p.Buf()[PayloadOff:PayloadOff+50], orig[packet.EthHdrLen:]) {
		t.Error("inner packet corrupted by encapsulation")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	db := newDB(t)
	p := mkPkt(t, 256)
	if _, err := Encap(p, db); err != nil {
		t.Fatal(err)
	}
	plain := append([]byte(nil), p.Data()...)
	if err := Encrypt(p, db); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(p.Data(), plain) {
		t.Fatal("encryption did not change payload")
	}
	// Headers and IV untouched.
	if !bytes.Equal(p.Data()[:PayloadOff], plain[:PayloadOff]) {
		t.Error("encryption touched headers")
	}
	if err := Decrypt(p, db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data(), plain) {
		t.Error("decrypt did not restore plaintext")
	}
}

func TestAuthenticateAndVerify(t *testing.T) {
	db := newDB(t)
	p := mkPkt(t, 128)
	if _, err := Encap(p, db); err != nil {
		t.Fatal(err)
	}
	if err := Encrypt(p, db); err != nil {
		t.Fatal(err)
	}
	if err := Authenticate(p, db); err != nil {
		t.Fatal(err)
	}
	ok, err := Verify(p, db)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v; want true", ok, err)
	}
	// Any ciphertext bit flip must break the ICV.
	p.Buf()[PayloadOff+3] ^= 1
	ok, _ = Verify(p, db)
	if ok {
		t.Error("tampered frame verified")
	}
}

// TestEncapAuthenticateVerifyDoNotAllocate gates the per-packet paths that
// need no allocation at any length: the IV stream is a stack Rand and the ICV
// is summed into the SA's own buffer. (TestCryptoKernelAllocFree covers
// Encrypt, which is allocation-free up to ctrShortMax.)
func TestEncapAuthenticateVerifyDoNotAllocate(t *testing.T) {
	db := newDB(t)
	p := mkPkt(t, 128)
	if allocs := testing.AllocsPerRun(100, func() {
		p.SetLength(128)
		if _, err := Encap(p, db); err != nil {
			t.Fatal(err)
		}
		if err := Authenticate(p, db); err != nil {
			t.Fatal(err)
		}
		if ok, err := Verify(p, db); err != nil || !ok {
			t.Fatalf("Verify = %v, %v; want true", ok, err)
		}
	}); allocs != 0 {
		t.Errorf("Encap+Authenticate+Verify allocate %.1f times per packet, want 0", allocs)
	}
}

func TestFullGatewayRoundTripProperty(t *testing.T) {
	// encap → encrypt → authenticate → verify → decrypt → decap must
	// restore the original frame for any size and payload.
	db := newDB(t)
	f := func(sizeSel uint16, payloadSeed uint64) bool {
		frameLen := 64 + int(sizeSel)%1437 // 64..1500
		p := &packet.Packet{}
		n := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4},
			uint32(payloadSeed), uint32(payloadSeed>>32), 99, 99, frameLen)
		p.SetLength(n)
		r := rng.New(payloadSeed)
		for i := 42; i < frameLen; i++ {
			p.Buf()[i] = byte(r.Uint64())
		}
		orig := append([]byte(nil), p.Data()...)

		if _, err := Encap(p, db); err != nil {
			return false
		}
		if err := Encrypt(p, db); err != nil {
			return false
		}
		if err := Authenticate(p, db); err != nil {
			return false
		}
		if ok, err := Verify(p, db); err != nil || !ok {
			return false
		}
		if err := Decrypt(p, db); err != nil {
			return false
		}
		if err := Decap(p); err != nil {
			return false
		}
		return bytes.Equal(p.Data(), orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSADBDeterministicAndDistinct(t *testing.T) {
	a, _ := NewSADB(8, 1)
	b, _ := NewSADB(8, 1)
	c, _ := NewSADB(8, 2)
	if a.SAs[3].AESKey != b.SAs[3].AESKey {
		t.Error("same seed produced different keys")
	}
	if a.SAs[3].AESKey == c.SAs[3].AESKey {
		t.Error("different seeds produced same keys")
	}
	if a.SAs[0].AESKey == a.SAs[1].AESKey {
		t.Error("adjacent SAs share a key")
	}
	if _, err := NewSADB(0, 1); err == nil {
		t.Error("empty SADB accepted")
	}
}

func TestSeqIncrementsPerSA(t *testing.T) {
	db := newDB(t)
	p1 := mkPkt(t, 64)
	p2 := mkPkt(t, 64) // same 5-tuple -> same SA
	idx1, _ := Encap(p1, db)
	idx2, _ := Encap(p2, db)
	if idx1 != idx2 {
		t.Fatal("same flow mapped to different SAs")
	}
	s1 := p1.Data()[ESPOff+4 : ESPOff+8]
	s2 := p2.Data()[ESPOff+4 : ESPOff+8]
	if bytes.Equal(s1, s2) {
		t.Error("sequence number did not increment")
	}
	// And the IVs must differ (derived from seq).
	if bytes.Equal(p1.Data()[IVOff:IVOff+IVLen], p2.Data()[IVOff:IVOff+IVLen]) {
		t.Error("IV repeated across packets of one SA")
	}
}

func TestEncapErrors(t *testing.T) {
	db := newDB(t)
	tiny := &packet.Packet{}
	tiny.SetLength(10)
	if _, err := Encap(tiny, db); err == nil {
		t.Error("tiny frame encapsulated")
	}
	huge := mkPkt(t, 1640)
	if _, err := Encap(huge, db); err == nil {
		t.Error("frame that would overflow the buffer encapsulated")
	}
	raw := &packet.Packet{}
	raw.SetLength(20)
	if err := Encrypt(raw, db); err == nil {
		t.Error("Encrypt accepted unencapsulated frame")
	}
}

// newStage instantiates one of the two registered crypto stages.
func newStage(t testing.TB, class string) *Stage {
	t.Helper()
	e, err := element.NewByClass(class)
	if err != nil {
		t.Fatal(err)
	}
	return e.(*Stage)
}

func TestElementsPipelineEquivalence(t *testing.T) {
	// Driving the three elements must equal calling the library directly.
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 4, Rand: rng.New(1)}
	pc := &element.ProcContext{NodeLocal: nl, Rand: rng.New(2), CostScale: 1}

	enc, aes, mac, dec := &ESPEncap{}, newStage(t, "IPsecAES"), newStage(t, "IPsecHMAC"), &ESPDecap{}
	for _, e := range []element.Element{enc, aes, mac, dec} {
		if err := e.Configure(cc, []string{"sas=32", "seed=5"}); err != nil {
			t.Fatal(err)
		}
	}
	if enc.db != aes.db || aes.db != mac.db || mac.db != dec.db {
		t.Fatal("elements did not share the SADB")
	}

	p := mkPkt(t, 200)
	orig := append([]byte(nil), p.Data()...)
	for _, e := range []element.Element{enc, aes, mac} {
		if r := apptest.RunOne(e, pc, p); r != 0 {
			t.Fatalf("%s returned %d", e.Class(), r)
		}
	}
	if p.Anno[packet.AnnoOutPort] >= 4 {
		t.Error("out port annotation out of range")
	}
	if r := dec.Process(pc, p); r != 0 {
		t.Fatalf("decap returned %d", r)
	}
	if !bytes.Equal(p.Data(), orig) {
		t.Error("element pipeline did not round-trip the frame")
	}
}

// TestDecapResolvesSAFromTheWire: the receiving gateway gets bytes — a pcap,
// a CaptureTx copy, another box — not the sender's annotations, so the SA
// must come from the ESP header's SPI.
func TestDecapResolvesSAFromTheWire(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 4, Rand: rng.New(1)}
	pc := &element.ProcContext{NodeLocal: nl, Rand: rng.New(2), CostScale: 1}
	dec := &ESPDecap{}
	if err := dec.Configure(cc, []string{"sas=32", "seed=5"}); err != nil {
		t.Fatal(err)
	}
	db := dec.db

	// A flow that does not hash to SA 0, which annotation 0 would pick.
	var sent *packet.Packet
	var orig []byte
	for src := uint32(1); ; src++ {
		p := &packet.Packet{}
		p.SetLength(packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, src, 0x08080808, 1234, 53, 200))
		orig = append(orig[:0], p.Data()...)
		idx, err := Encap(p, db)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			sent = p
			break
		}
	}
	if err := Encrypt(sent, db); err != nil {
		t.Fatal(err)
	}
	if err := Authenticate(sent, db); err != nil {
		t.Fatal(err)
	}

	wire := &packet.Packet{}
	wire.CopyFrom(sent.Data())
	if wire.Anno[packet.AnnoFlowID] != 0 {
		t.Fatal("CopyFrom carried an annotation")
	}
	if ok, err := Verify(wire, db); err != nil || !ok {
		t.Fatalf("Verify of the bytes-only copy = %v, %v; want true", ok, err)
	}
	if r := dec.Process(pc, wire); r != 0 {
		t.Fatalf("decap of the bytes-only copy returned %d", r)
	}
	if !bytes.Equal(wire.Data(), orig) {
		t.Error("bytes-only copy did not decapsulate to the original frame")
	}

	// An SPI the gateway does not hold is dropped, not tried on some SA.
	unknown := &packet.Packet{}
	unknown.CopyFrom(sent.Data())
	unknown.Buf()[ESPOff] ^= 0x40
	if r := dec.Process(pc, unknown); r != element.Drop {
		t.Errorf("frame with unknown SPI returned %d, want drop", r)
	}
	if _, _, ok := db.BySPI(db.SAs[31].SPI + 1); ok {
		t.Error("BySPI resolved an SPI past the last SA")
	}
	if idx, sa, ok := db.BySPI(db.SAs[31].SPI); !ok || idx != 31 || sa != db.SAs[31] {
		t.Errorf("BySPI(last) = %d, %p, %v", idx, sa, ok)
	}
}

func TestElementConfigErrors(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 4, Rand: rng.New(1)}
	for _, args := range [][]string{{"sas=0"}, {"sas=x"}, {"seed=x"}, {"nope=1"}} {
		if err := (&ESPEncap{}).Configure(cc, args); err == nil {
			t.Errorf("config %v accepted", args)
		}
	}
}

func TestSharedDatablockNames(t *testing.T) {
	a := newStage(t, "IPsecAES").Datablocks()
	h := newStage(t, "IPsecHMAC").Datablocks()
	if a[0].Name != h[0].Name {
		t.Error("AES and HMAC do not share the frame datablock (chained offload would copy twice)")
	}
	if !a[0].H2D || !a[0].D2H {
		t.Error("frame datablock must copy both directions")
	}
}
