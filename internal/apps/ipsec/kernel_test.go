package ipsec

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"testing"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
)

// FuzzCTRMatchesStdlib is the differential test of the package's own CTR:
// for any key, IV and length, xorBlocks (at every length, not only those
// xorCTR sends it) and xorCTR produce in place what cipher.NewCTR produces,
// and touch nothing outside data.
func FuzzCTRMatchesStdlib(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, 16)
	carry32 := append(bytes.Repeat([]byte{0x11}, 12), 0xff, 0xff, 0xff, 0xfe)
	carry64 := append(bytes.Repeat([]byte{0x22}, 8), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe)
	carry128 := append(bytes.Repeat([]byte{0xff}, 15), 0xfe)
	for _, iv := range [][]byte{make([]byte, 16), ones, carry32, carry64, carry128} {
		for _, n := range []uint16{0, 1, 15, 16, 17, 52, 244, ctrShortMax - 1, ctrShortMax, ctrShortMax + 1, 500, 1600} {
			f.Add([]byte("0123456789abcdef"), iv, n)
		}
	}
	f.Fuzz(func(t *testing.T, key, iv []byte, n uint16) {
		var k, v [16]byte
		copy(k[:], key)
		copy(v[:], iv)
		block, err := aes.NewCipher(k[:])
		if err != nil {
			t.Fatal(err)
		}
		db, sa := &SADB{}, &SA{block: block}
		const guard = 16
		size := int(n % 1601)
		plain := make([]byte, guard+size+guard)
		r := rng.New(uint64(n)<<32 | uint64(v[15]))
		for i := range plain {
			plain[i] = byte(r.Uint64())
		}
		want := append([]byte(nil), plain...)
		cipher.NewCTR(block, v[:]).XORKeyStream(want[guard:guard+size], want[guard:guard+size])

		for name, xor := range map[string]func(sa *SA, iv, data []byte){"xorBlocks": db.xorBlocks, "xorCTR": db.xorCTR} {
			got := append([]byte(nil), plain...)
			xor(sa, v[:], got[guard:guard+size])
			if !bytes.Equal(got, want) {
				t.Errorf("%s: key %x iv %x len %d differs from cipher.NewCTR", name, k, v, size)
			}
		}
	})
}

// kernelBatch returns n frames of frameLen bytes, encapsulated, in a batch,
// and the two crypto stages configured on one SADB with the encapsulator.
func kernelBatch(tb testing.TB, n, frameLen int) (*batch.Batch, *Stage, *Stage) {
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
		ln := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, uint32(i), uint32(i*7), 1, 2, frameLen)
		p.SetLength(ln)
		if _, err := Encap(p, enc.db); err != nil {
			tb.Fatal(err)
		}
		b.Add(p)
	}
	return b, aesStage, macStage
}

// TestCryptoKernelAllocFree gates the claim of the allocation-free kernel:
// on a warmed SA a payload of up to ctrShortMax bytes is encrypted and
// authenticated without allocating, through the exported per-packet
// functions and through Stage.Kernel over a batch.
func TestCryptoKernelAllocFree(t *testing.T) {
	db := newDB(t)
	for _, size := range []int{64, 128, 256} {
		p := mkPkt(t, size)
		if _, err := Encap(p, db); err != nil {
			t.Fatal(err)
		}
		if p.Length()-PayloadOff-ICVLen > ctrShortMax {
			t.Fatalf("%d B frame has a %d B payload, beyond ctrShortMax", size, p.Length()-PayloadOff-ICVLen)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := Encrypt(p, db); err != nil {
				t.Fatal(err)
			}
			if err := Authenticate(p, db); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d B: Encrypt+Authenticate allocate %.1f times per packet, want 0", size, allocs)
		}
	}

	b, aesStage, macStage := kernelBatch(t, 64, 128)
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
// 64-packet batch (ns/op is per packet) and the two ways of doing that
// frame's CTR. ctrShortMax sits where the ctr-blocks and ctr-stdlib rows
// cross.
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
		b.Run(fmt.Sprintf("%d/ctr-blocks", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.xorBlocks(sa, iv, payload)
			}
		})
		b.Run(fmt.Sprintf("%d/ctr-stdlib", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cipher.NewCTR(sa.block, iv).XORKeyStream(payload, payload)
			}
		})
	}
}
