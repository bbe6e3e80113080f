package ipsec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"nba/internal/packet"
	"nba/internal/rng"
)

// goldenSizes are the frame lengths of gen's caidaBuckets plus the four
// lengths (one per ESP pad length) whose encapsulation ends within a word
// of packet.MaxFrameLen.
var goldenSizes = []int{64, 128, 256, 512, 1024, 1500, 1601, 1602, 1603, 1604}

// TestESPFramesGolden pins every byte the gateway produces: sha256 over
// 4 100 length-prefixed frames after Encap → Encrypt → Authenticate, spread
// over all 64 SAs of the database so sequence numbers (and with them the
// IVs) advance. The digest was recorded before the crypto kernel was
// rewritten; a kernel change must reproduce it exactly, on each CTR routine
// with each SHA-1 block: the generic ones and the ones NewSADB picks for
// this host.
func TestESPFramesGolden(t *testing.T) {
	const want = "b84de1b1340703e4f7608ce8232ff17f2cb6e494f7a756c8311d2568012df47d"
	for _, c := range testCTRs() {
		for _, b := range testBlocks() {
			db, err := newSADB(64, 7, c.ctr, b.block)
			if err != nil {
				t.Fatal(err)
			}
			if got := espFramesDigest(t, db); got != want {
				t.Errorf("ctr %s, block %s: ESP frame digest = %s, want %s", c.name, b.name, got, want)
			}
		}
	}
}

// espFramesDigest produces TestESPFramesGolden's frames on db and returns
// their digest.
func espFramesDigest(t *testing.T, db *SADB) string {
	t.Helper()
	const frames = 4100
	used := make([]int, len(db.SAs))
	r := rng.New(23)
	h := sha256.New()
	p := &packet.Packet{}
	maxLen := 0
	for i := 0; i < frames; i++ {
		size := goldenSizes[i%len(goldenSizes)]
		n := packet.BuildUDP4(p.Buf(), [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
			0x0A000000+uint32(i%509), r.Uint32(), uint16(1024+i%40000), 53, size)
		p.SetLength(n)
		for j := packet.EthHdrLen + packet.IPv4HdrLen + packet.UDPHdrLen; j < size; j++ {
			p.Buf()[j] = byte(r.Uint64())
		}
		idx, err := Encap(p, db)
		if err != nil {
			t.Fatalf("frame %d (%d B): Encap: %v", i, size, err)
		}
		used[idx]++
		if err := Encrypt(p, db); err != nil {
			t.Fatalf("frame %d (%d B): Encrypt: %v", i, size, err)
		}
		if err := Authenticate(p, db); err != nil {
			t.Fatalf("frame %d (%d B): Authenticate: %v", i, size, err)
		}
		if p.Length() > maxLen {
			maxLen = p.Length()
		}
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], uint32(p.Length()))
		h.Write(ln[:])
		h.Write(p.Data())
	}
	for idx, n := range used {
		if n < 2 {
			t.Errorf("SA %d used %d times; every SA must see its sequence number advance", idx, n)
		}
	}
	if maxLen < packet.MaxFrameLen-3 {
		t.Errorf("longest frame %d B does not reach the %d B buffer boundary", maxLen, packet.MaxFrameLen)
	}
	return hex.EncodeToString(h.Sum(nil))
}
