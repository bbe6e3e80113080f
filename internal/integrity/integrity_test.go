package integrity

import (
	"slices"
	"strings"
	"testing"

	"nba/internal/batch"
	"nba/internal/packet"
	"nba/internal/rng"
	"nba/internal/simtime"
)

// packetAlloc backs fill's batches so tests control packet identity.
var packetAlloc [64]packet.Packet

func TestConfigWithDefaults(t *testing.T) {
	c := (&Config{SampleRate: 0.25}).WithDefaults()
	if c.Alpha != 0.5 || c.DemoteScore != 0.4 || c.FailScore != 0.85 ||
		c.DemoteStep != 0.25 || c.ProbeAfter != 500*simtime.Microsecond {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.SampleRate != 0.25 {
		t.Fatalf("defaults clobbered the sample rate: %v", c.SampleRate)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("defaulted config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	base := func() *Config { return (&Config{SampleRate: 0.5}).WithDefaults() }
	cases := []struct {
		name string
		mut  func(*Config)
		err  string // substring, "" for valid
	}{
		{"defaults valid", func(c *Config) {}, ""},
		{"rate zero is armed-without-sampling", func(c *Config) { c.SampleRate = 0 }, ""},
		{"rate one", func(c *Config) { c.SampleRate = 1 }, ""},
		{"rate negative", func(c *Config) { c.SampleRate = -0.1 }, "sample rate"},
		{"rate above one", func(c *Config) { c.SampleRate = 1.5 }, "sample rate"},
		{"alpha above one", func(c *Config) { c.Alpha = 1.5 }, "alpha"},
		{"demote above one", func(c *Config) { c.DemoteScore = 1.5 }, "demote score"},
		{"fail below demote", func(c *Config) { c.FailScore = 0.2 }, "fail score"},
		{"step above one", func(c *Config) { c.DemoteStep = 2 }, "demote step"},
		{"probe negative", func(c *Config) { c.ProbeAfter = -1 }, "probe delay"},
	}
	for _, tc := range cases {
		c := base()
		tc.mut(c)
		err := c.Validate()
		if tc.err == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.err)
		}
	}
}

func TestSampleDeterministicAndNilSafe(t *testing.T) {
	cfg := (&Config{SampleRate: 0.3}).WithDefaults()
	a := NewSentinel(cfg, rng.New(7), nil)
	b := NewSentinel(cfg, rng.New(7), nil)
	for i := 0; i < 1000; i++ {
		if a.Sample() != b.Sample() {
			t.Fatalf("same seed diverged at coin %d", i)
		}
	}

	always := newSentinel(1, 1)
	never := newSentinel(0, 1)
	var nilS *Sentinel
	for i := 0; i < 100; i++ {
		if !always.Sample() {
			t.Fatal("rate-1 sentinel declined a sample")
		}
		if never.Sample() {
			t.Fatal("rate-0 sentinel sampled")
		}
		if nilS.Sample() {
			t.Fatal("nil sentinel sampled")
		}
	}
	nilS.Release(nil) // must not panic
}

// newSentinel is a sentinel sampling at rate with a free list of its own.
func newSentinel(rate float64, seed uint64) *Sentinel {
	return NewSentinel((&Config{SampleRate: rate}).WithDefaults(), rng.New(seed), new([]*Shadow))
}

// fill builds a batch of n live packets with distinct payloads plus one
// masked slot, mimicking a post-classification aggregate.
func fill(n int) *batch.Batch { return fillOver(packetAlloc[:n+1]) }

// fillOver is fill over caller-owned packets: len(pkts)-1 live, the last masked.
func fillOver(pkts []packet.Packet) *batch.Batch {
	b := &batch.Batch{}
	n := len(pkts) - 1
	for i := 0; i < n; i++ {
		p := &pkts[i]
		p.Reset()
		p.CopyFrom([]byte{byte(i), 0x10, byte(i * 3), 0xff})
		p.Anno[0] = uint64(i)
		b.Add(p)
		b.SetResult(i, i%3)
	}
	b.Add(&pkts[n])
	b.Mask(n)
	return b
}

// deviceExec is the stand-in offloaded kernel: a pure function over slot
// state, the shape an offloadable Kernel has.
func deviceExec(b *batch.Batch) {
	for i := 0; i < b.Count(); i++ {
		if b.IsMasked(i) {
			continue
		}
		p := b.Packet(i)
		p.Data()[0] ^= 0x42
		b.SetResult(i, int(p.Data()[1])+p.Length())
	}
}

func TestSnapshotVerifyMatchAndMismatch(t *testing.T) {
	s := newSentinel(1, 3)

	// Honest device: snapshot before execution, execute the source, rerun
	// the same kernel on the shadow — digests must agree.
	src := fill(4)
	sh := s.Snapshot([]*batch.Batch{src})
	deviceExec(src)
	if !s.Verify(sh, deviceExec) {
		t.Fatal("honest execution flagged as mismatch")
	}
	if s.Checks != 1 || s.Mismatches != 0 {
		t.Fatalf("counters after match: checks %d, mismatches %d", s.Checks, s.Mismatches)
	}

	// Corrupting device: same flow, but a payload byte is flipped after
	// execution (what fault.DeviceCorrupt does) — must mismatch.
	src = fill(4)
	sh = s.Snapshot([]*batch.Batch{src})
	deviceExec(src)
	src.Packet(2).Data()[3] ^= 0x01
	if s.Verify(sh, deviceExec) {
		t.Fatal("corrupted payload not detected")
	}
	if s.Checks != 2 || s.Mismatches != 1 {
		t.Fatalf("counters after mismatch: checks %d, mismatches %d", s.Checks, s.Mismatches)
	}

	// A wrong result word (device lied about the verdict, bytes intact)
	// must also mismatch.
	src = fill(4)
	sh = s.Snapshot([]*batch.Batch{src})
	deviceExec(src)
	src.SetResult(1, src.Result(1)+1)
	if s.Verify(sh, deviceExec) {
		t.Fatal("corrupted result word not detected")
	}
}

// assertReleased checks that a released shadow is on the free list with the
// used prefix of its arenas reset.
func assertReleased(t *testing.T, s *Sentinel, sh *Shadow) {
	t.Helper()
	if free := *s.free; len(free) == 0 || free[len(free)-1] != sh {
		t.Fatal("release did not put the shadow on the free list")
	}
	if len(sh.srcs) != 0 {
		t.Fatal("release left sources attached to the shadow")
	}
	for i, b := range sh.batches {
		if *b != (batch.Batch{}) {
			t.Fatalf("shadow batch %d not reset", i)
		}
	}
	for i, p := range sh.pkts {
		if p.Length() != 0 || p.Anno != [packet.NumAnnos]uint64{} {
			t.Fatalf("shadow packet %d not reset: length %d, anno %v", i, p.Length(), p.Anno)
		}
	}
}

func TestReleaseRecycles(t *testing.T) {
	s := newSentinel(1, 3)
	src := fill(4)
	sh := s.Snapshot([]*batch.Batch{src})
	pkts, batches := slices.Clone(sh.pkts), slices.Clone(sh.batches)
	s.Release(sh)
	assertReleased(t, s, sh)
	sh2 := s.Snapshot([]*batch.Batch{src})
	if sh2 != sh || !slices.Equal(sh2.pkts, pkts) || !slices.Equal(sh2.batches, batches) {
		t.Fatal("snapshot did not reuse the released shadow's arenas")
	}
	if len(*s.free) != 0 {
		t.Fatal("a shadow in use is still on the free list")
	}
	s.Release(sh2)
}

// TestShadowArenaGrowth: an aggregate with more batches and slots than any
// the shadow has held grows its arenas without moving the slots it had, and
// the verdicts stay right on the grown shadow and on a smaller one after it.
func TestShadowArenaGrowth(t *testing.T) {
	s := newSentinel(1, 3)
	var pkts [3][9]packet.Packet
	aggregate := func(nb, n int) []*batch.Batch {
		bs := make([]*batch.Batch, nb)
		for k := range bs {
			bs[k] = fillOver(pkts[k][:n+1])
		}
		return bs
	}
	check := func(name string, bs []*batch.Batch, corrupt bool) *Shadow {
		t.Helper()
		sh := s.Snapshot(bs)
		for k, b := range bs {
			if digestBatch(b) != digestBatch(sh.batches[k]) {
				t.Fatalf("%s: shadow batch %d is not a copy of its source", name, k)
			}
		}
		for _, b := range bs {
			deviceExec(b)
		}
		if corrupt {
			bs[len(bs)-1].Packet(0).Data()[0] ^= 0x01
		}
		if s.Verify(sh, deviceExec) == corrupt {
			t.Fatalf("%s: verdict %v on a corrupt=%v aggregate", name, !corrupt, corrupt)
		}
		assertReleased(t, s, sh)
		return sh
	}

	sh := check("small", aggregate(1, 2), false)
	if len(sh.pkts) != 3 || len(sh.batches) != 1 {
		t.Fatalf("small aggregate sized the arenas %d/%d, want 3/1", len(sh.pkts), len(sh.batches))
	}
	small := slices.Clone(sh.pkts)
	if check("grown", aggregate(3, 8), true) != sh {
		t.Fatal("growth replaced the shadow instead of its arenas")
	}
	if len(sh.pkts) != 27 || len(sh.batches) != 3 {
		t.Fatalf("grown arenas %d/%d, want 27/3", len(sh.pkts), len(sh.batches))
	}
	if !slices.Equal(sh.pkts[:3], small) {
		t.Fatal("growth moved the slots the shadow already had")
	}
	grown := slices.Clone(sh.pkts)
	check("smaller after growth", aggregate(2, 5), false)
	check("smaller after growth, corrupt", aggregate(2, 5), true)
	if !slices.Equal(sh.pkts, grown) {
		t.Fatal("a smaller aggregate grew the arena")
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := func() *batch.Batch { return fill(4) }
	h0 := digestBatch(base())
	if digestBatch(base()) != h0 {
		t.Fatal("digest not deterministic over identical batches")
	}
	mutations := []struct {
		name string
		mut  func(*batch.Batch)
	}{
		{"payload byte", func(b *batch.Batch) { b.Packet(0).Data()[2] ^= 1 }},
		{"result word", func(b *batch.Batch) { b.SetResult(0, 99) }},
		{"annotation", func(b *batch.Batch) { b.Packet(1).Anno[0]++ }},
		{"length", func(b *batch.Batch) { b.Packet(3).SetLength(3) }},
		{"mask", func(b *batch.Batch) { b.Mask(2) }},
	}
	for _, m := range mutations {
		b := base()
		m.mut(b)
		if digestBatch(b) == h0 {
			t.Errorf("digest blind to %s mutation", m.name)
		}
	}
}

func TestTrackerEscalationLadder(t *testing.T) {
	cfg := (&Config{SampleRate: 1}).WithDefaults() // alpha .5, demote .4, fail .85
	tr := NewTracker(cfg, 2)

	// First mismatch: score 0.5 crosses DemoteScore once.
	if got := tr.Observe(0, true); got != ActionDemote {
		t.Fatalf("first mismatch: action %v, want demote", got)
	}
	// Second: score 0.75 — demoted already, below fail.
	if got := tr.Observe(0, true); got != ActionNone {
		t.Fatalf("second mismatch: action %v, want none", got)
	}
	// Third consecutive: score 0.875 crosses FailScore.
	if got := tr.Observe(0, true); got != ActionFailStop {
		t.Fatalf("third mismatch: action %v, want fail-stop", got)
	}
	if !tr.FailStopped(0) || tr.Consecutive(0) != 3 {
		t.Fatalf("post-fail state: failed %v, consec %d", tr.FailStopped(0), tr.Consecutive(0))
	}
	// In-flight completions against a fail-stopped device are ignored.
	if got := tr.Observe(0, true); got != ActionNone {
		t.Fatalf("observation on failed device: action %v, want none", got)
	}

	// The other device is independent and decays on matches.
	tr.Observe(1, true)
	score := tr.Score(1)
	tr.Observe(1, false)
	if tr.Score(1) >= score || tr.Consecutive(1) != 0 {
		t.Fatalf("match did not decay device 1: score %v -> %v, consec %d",
			score, tr.Score(1), tr.Consecutive(1))
	}

	// Readmission starts the device over.
	tr.Readmit(0)
	if tr.FailStopped(0) || tr.Score(0) != 0 || tr.Consecutive(0) != 0 {
		t.Fatal("readmit did not reset device 0")
	}
	if got := tr.Observe(0, true); got != ActionDemote {
		t.Fatalf("post-readmit mismatch: action %v, want demote (ladder restarts)", got)
	}
}
