package ipsec

import (
	"encoding/binary"
	"fmt"
	"testing"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
)

// kernelBatch returns n frames, encapsulated, in a batch, and the two crypto
// stages configured on one SADB with the encapsulator. Frame i is
// frameLens[i % len(frameLens)] bytes long.
func kernelBatch(tb testing.TB, n int, frameLens ...int) (*batch.Batch, *Stage, *Stage) {
	tb.Helper()
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 4, Rand: rng.New(1)}
	enc, aesStage, macStage := &ESPEncap{}, newStage(tb, "IPsecAES"), newStage(tb, "IPsecHMAC")
	for _, e := range []element.Element{enc, aesStage, macStage} {
		if err := e.Configure(cc, []string{"sas=64", "seed=7"}); err != nil {
			tb.Fatal(err)
		}
	}
	b := &batch.Batch{}
	for i := 0; i < n; i++ {
		p := &packet.Packet{}
		ln := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, uint32(i), uint32(i*7), 1, 2, frameLens[i%len(frameLens)])
		p.SetLength(ln)
		if _, err := Encap(p, enc.db); err != nil {
			tb.Fatal(err)
		}
		b.Add(p)
	}
	return b, aesStage, macStage
}

// caidaSizes are the frame lengths of gen's CAIDA size buckets.
var caidaSizes = goldenSizes[:6]

// largestEncap returns the longest frame Encap accepts, encapsulated.
func largestEncap(t *testing.T, db *SADB) *packet.Packet {
	t.Helper()
	for size := packet.MaxFrameLen - espOverhead; size > 0; size-- {
		p := mkPkt(t, size)
		if _, err := Encap(p, db); err == nil {
			return p
		}
	}
	t.Fatal("Encap accepts no frame")
	return nil
}

// TestCryptoKernelAllocFree gates the claim of the allocation-free kernel:
// on a warmed SA a frame of any size is encrypted and authenticated without
// allocating, through the exported per-packet functions and through
// Stage.Kernel over a batch of the CAIDA mix's sizes.
func TestCryptoKernelAllocFree(t *testing.T) {
	db := newDB(t)
	var frames []*packet.Packet
	for _, size := range caidaSizes {
		p := mkPkt(t, size)
		if _, err := Encap(p, db); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, p)
	}
	frames = append(frames, largestEncap(t, db))
	for _, p := range frames {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := Encrypt(p, db); err != nil {
				t.Fatal(err)
			}
			if err := Authenticate(p, db); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d B encapsulated frame: Encrypt+Authenticate allocate %.1f times per packet, want 0", p.Length(), allocs)
		}
	}

	b, aesStage, macStage := kernelBatch(t, 64, caidaSizes...)
	pc := &element.ProcContext{Rand: rng.New(2), CostScale: 1}
	if allocs := testing.AllocsPerRun(20, func() {
		aesStage.Kernel(pc, b)
		macStage.Kernel(pc, b)
	}); allocs != 0 {
		t.Errorf("Stage.Kernel over 64 packets allocates %.1f times per batch, want 0", allocs)
	}
	for i := 0; i < b.Count(); i++ {
		if b.Result(i) != 0 {
			t.Fatalf("packet %d: result %d", i, b.Result(i))
		}
	}
}

// BenchmarkESPKernel times, per frame size, the two stage kernels over a
// 64-packet batch (ns/op is per packet), the frame's CTR on the host's
// routine and on the generic one, and its ICV on the host's SHA-1 block.
func BenchmarkESPKernel(b *testing.B) {
	for _, size := range []int{64, 256, 512, 1500} {
		bt, aesStage, macStage := kernelBatch(b, 64, size)
		pc := &element.ProcContext{Rand: rng.New(2), CostScale: 1}
		b.Run(fmt.Sprintf("%d/kernel", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += bt.Count() {
				aesStage.Kernel(pc, bt)
				macStage.Kernel(pc, bt)
			}
		})
		db := aesStage.db
		pkt := bt.Packet(0)
		sa, end, err := db.sendSA(pkt)
		if err != nil {
			b.Fatal(err)
		}
		iv, payload := pkt.Buf()[IVOff:PayloadOff], pkt.Buf()[PayloadOff:end-ICVLen]
		b.Run(fmt.Sprintf("%d/ctr", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.loop().xorCTR(sa, iv, payload)
			}
		})
		hi, lo := binary.BigEndian.Uint64(iv[:8]), binary.BigEndian.Uint64(iv[8:])
		b.Run(fmt.Sprintf("%d/ctr-generic", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctrGeneric(&sa.rk, hi, lo, payload)
			}
		})
		msg := pkt.Buf()[ESPOff : end-ICVLen]
		b.Run(fmt.Sprintf("%d/icv", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.loop().icv(sa, msg)
			}
		})
	}
}
