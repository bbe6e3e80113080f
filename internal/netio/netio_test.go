package netio

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nba/internal/gen"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

func newQueue(rate float64, capacity int) (*RxQueue, *PacketPool) {
	g := &gen.UDP4{FrameLen: 64, Flows: 64, Seed: 1}
	return NewRxQueue(0, 0, g, rate, capacity), NewPacketPool("test", 8192)
}

func TestRxQueueArrivalRate(t *testing.T) {
	// 1 Mpps for 1 ms => 1000 packets.
	q, pool := newQueue(1e6, 4096)
	var out []*packet.Packet
	out = q.Poll(simtime.Millisecond, 4096, pool, out)
	if len(out) != 1000 {
		t.Fatalf("received %d packets, want 1000", len(out))
	}
	// Timestamps are evenly spaced at 1us.
	for i, p := range out {
		want := simtime.Time(i+1) * simtime.Microsecond
		if p.Arrival != want {
			t.Fatalf("packet %d arrival %v, want %v", i, p.Arrival, want)
		}
		if p.Seq != uint64(i) || p.InPort != 0 {
			t.Fatalf("packet %d metadata wrong: seq=%d port=%d", i, p.Seq, p.InPort)
		}
	}
	for _, p := range out {
		pool.Put(p)
	}
}

func TestRxQueueBurstLimit(t *testing.T) {
	q, pool := newQueue(1e6, 4096)
	out := q.Poll(simtime.Millisecond, 64, pool, nil)
	if len(out) != 64 {
		t.Fatalf("burst returned %d, want 64", len(out))
	}
	if got := q.Backlog(simtime.Millisecond); got != 936 {
		t.Errorf("backlog = %d, want 936", got)
	}
	for _, p := range out {
		pool.Put(p)
	}
}

func TestRxQueueOverflowDrops(t *testing.T) {
	q, pool := newQueue(1e6, 100) // tiny queue
	// After 10 ms without polling, 10000 packets arrived into 100 slots.
	if got := q.Backlog(10 * simtime.Millisecond); got != 100 {
		t.Errorf("backlog = %d, want 100 (capacity)", got)
	}
	_, dropped, _ := q.Stats()
	if dropped != 9900 {
		t.Errorf("dropped = %d, want 9900", dropped)
	}
	out := q.Poll(10*simtime.Millisecond, 4096, pool, nil)
	if len(out) != 100 {
		t.Errorf("delivered %d, want 100", len(out))
	}
	for _, p := range out {
		pool.Put(p)
	}
}

func TestRxQueuePoolExhaustion(t *testing.T) {
	g := &gen.UDP4{FrameLen: 64, Seed: 1}
	q := NewRxQueue(0, 0, g, 1e6, 4096)
	pool := NewPacketPool("tiny", 10)
	out := q.Poll(simtime.Millisecond, 64, pool, nil)
	if len(out) != 10 {
		t.Errorf("delivered %d, want 10 (pool size)", len(out))
	}
	_, _, allocFailed := q.Stats()
	if allocFailed != 54 {
		t.Errorf("allocFailed = %d, want 54", allocFailed)
	}
}

func TestRxQueueRateChange(t *testing.T) {
	q, pool := newQueue(1e6, 100000)
	out := q.Poll(simtime.Millisecond, 100000, pool, nil) // 1000 pkts
	for _, p := range out {
		pool.Put(p)
	}
	q.SetRate(simtime.Millisecond, 2e6)
	out = q.Poll(2*simtime.Millisecond, 100000, pool, nil)
	if len(out) != 2000 {
		t.Errorf("after rate change received %d, want 2000", len(out))
	}
	// New-segment timestamps restart from the change point.
	if first := out[0].Arrival; first <= simtime.Millisecond {
		t.Errorf("first new-rate arrival %v, want > 1ms", first)
	}
	for _, p := range out {
		pool.Put(p)
	}
}

func TestRxQueueStopTime(t *testing.T) {
	q, pool := newQueue(1e6, 100000)
	q.SetStop(simtime.Millisecond)
	out := q.Poll(5*simtime.Millisecond, 100000, pool, nil)
	if len(out) != 1000 {
		t.Errorf("received %d after stop, want 1000", len(out))
	}
	for _, p := range out {
		pool.Put(p)
	}
}

func TestRxQueueZeroRate(t *testing.T) {
	q, pool := newQueue(0, 100)
	if out := q.Poll(simtime.Second, 64, pool, nil); len(out) != 0 {
		t.Errorf("zero-rate queue delivered %d packets", len(out))
	}
}

func TestPortQueueSplit(t *testing.T) {
	g := &gen.UDP4{FrameLen: 64, Seed: 2}
	hw := sysinfo.Port{ID: 3, Socket: 0, LineRateBps: 10e9}
	p := &Port{HW: hw}
	for qi := 0; qi < 7; qi++ {
		p.AddQueue(0, 0, g, 4096).SetRate(0, 14e6/7) // the RSS model: an even split
	}
	if len(p.Rx) != 7 {
		t.Fatalf("%d queues, want 7", len(p.Rx))
	}
	pool := NewPacketPool("t", 65536)
	total := 0
	for _, q := range p.Rx {
		out := q.Poll(simtime.Millisecond, 65536, pool, nil)
		total += len(out)
		for _, pk := range out {
			pool.Put(pk)
		}
	}
	if total != 7*2000 {
		t.Errorf("total delivered %d, want 14000 (14 Mpps over 1 ms)", total)
	}
}

func TestPortTransmitAccounting(t *testing.T) {
	hw := sysinfo.Port{ID: 0, Socket: 0, LineRateBps: 10e9}
	p := &Port{HW: hw}
	p.TxM.Mark(0)
	for i := 0; i < 1000; i++ {
		p.Transmit(64)
	}
	pps, bps := p.TxM.RateSince(simtime.Millisecond)
	if math.Abs(pps-1e6) > 1 {
		t.Errorf("tx pps = %v, want 1e6", pps)
	}
	// 84 wire bytes per frame.
	if math.Abs(bps-672e6) > 1 {
		t.Errorf("tx bps = %v, want 672e6", bps)
	}
}

func TestOfferedPPS(t *testing.T) {
	g := &gen.UDP4{FrameLen: 64}
	pps := OfferedPPS(10e9, g)
	if math.Abs(pps-14_880_952.38) > 1 {
		t.Errorf("OfferedPPS = %v, want 14.88M", pps)
	}
}

func TestGeneratedPacketsParseAndSpread(t *testing.T) {
	// End-to-end sanity: polled packets are valid IPv4 and carry the RX
	// timestamp annotation.
	q, pool := newQueue(1e6, 4096)
	out := q.Poll(100*simtime.Microsecond, 256, pool, nil)
	if len(out) != 100 {
		t.Fatalf("got %d packets", len(out))
	}
	for _, p := range out {
		if err := packet.CheckIPv4(p.Data()[packet.EthHdrLen:]); err != nil {
			t.Fatalf("generated packet invalid: %v", err)
		}
		if p.Anno[packet.AnnoTimestamp] != uint64(p.Arrival) {
			t.Fatal("timestamp annotation not set")
		}
		pool.Put(p)
	}
}

func TestRxQueueFlap(t *testing.T) {
	// 1 Mpps, capacity 1000. Down at 1 ms: delivery stops, arrivals keep
	// accruing, and once the ring fills the excess drops. Up at 4 ms:
	// delivery resumes from the surviving backlog.
	q, pool := newQueue(1e6, 1000)
	var out []*packet.Packet
	out = q.Poll(simtime.Millisecond, 256, pool, out)
	if len(out) != 256 {
		t.Fatalf("pre-flap burst delivered %d, want 256", len(out))
	}

	q.SetDown(true)
	if !q.Down() {
		t.Fatal("Down() false after SetDown(true)")
	}
	for ms := 2; ms <= 4; ms++ {
		got := q.Poll(simtime.Time(ms)*simtime.Millisecond, 256, pool, nil)
		if len(got) != 0 {
			t.Fatalf("down queue delivered %d packets at %d ms", len(got), ms)
		}
	}
	// 4000 arrivals by now, 256 delivered, ring holds 1000: the rest is
	// overflow-dropped.
	_, dropped, _ := q.Stats()
	if want := uint64(4000 - 256 - 1000); dropped != want {
		t.Fatalf("dropped = %d while down, want %d", dropped, want)
	}

	q.SetDown(false)
	got := q.Poll(4*simtime.Millisecond+simtime.Microsecond, 256, pool, nil)
	if len(got) != 256 {
		t.Fatalf("recovered queue delivered %d, want full burst", len(got))
	}
	// Sequence numbers stay contiguous with arrival order: the first packet
	// after recovery follows the (final) dropped range.
	_, droppedNow, _ := q.Stats()
	if got[0].Seq != 256+droppedNow {
		t.Errorf("first post-flap seq = %d, want %d", got[0].Seq, 256+droppedNow)
	}
	for _, p := range out {
		pool.Put(p)
	}
	for _, p := range got {
		pool.Put(p)
	}
}

func TestBacklogUnderflowGuard(t *testing.T) {
	q, _ := newQueue(1e6, 4096)
	q.advance(simtime.Millisecond)

	// Corrupt the counters so delivered+dropped exceeds arrivals — the bug
	// class the guard exists for. Without debugChecks the uint64 subtraction
	// wraps; with it, backlog() must panic with the queue's identity and the
	// three counters in the message.
	saved := debugChecks
	defer func() { debugChecks = saved }()

	debugChecks = false
	q.delivered = q.arrivalsSeen + 3
	if b := q.backlog(); b < 1<<62 {
		t.Fatalf("expected wrapped backlog without debugChecks, got %d", b)
	}

	debugChecks = true
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("backlog underflow did not panic under debugChecks")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"rx queue 0.0", "underflow", "delivered"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	q.Backlog(simtime.Millisecond)
}

// plainGen hides a generator's FillBurst, so the queue takes the per-packet
// adapter for it.
type plainGen struct{ Generator }

// rxRecord is everything Poll decides about one delivered packet.
type rxRecord struct {
	seq     uint64
	arrival simtime.Time
	inPort  int
	origLen int
	tenant  int32
	anno    [packet.NumAnnos]uint64
	frame   string
}

// driveRxHistory runs one fixed queue history — full bursts, the pool
// running dry in the middle of a burst, a poll longer than one fill chunk, a
// flap with overflow, bursts shorter than the generator's lane width, and a
// generator swap before the third and the sixth poll — and returns every
// delivered packet and the final counters. gens(i) is the generator in force
// from swap i on.
func driveRxHistory(t *testing.T, gens func(i int) Generator) (recs []rxRecord, counters [4]uint64) {
	t.Helper()
	q := NewRxQueue(2, 1, gens(0), 2e6, 256)
	q.Tenant = 3
	pool := NewPacketPool("history", 100)
	var held []*packet.Packet
	poll := func(now simtime.Time, burst, want int) {
		t.Helper()
		out := q.Poll(now, burst, pool, nil)
		if len(out) != want {
			t.Fatalf("poll at %v delivered %d packets, want %d", now, len(out), want)
		}
		for _, p := range out {
			recs = append(recs, rxRecord{p.Seq, p.Arrival, p.InPort, p.OrigLen, p.Tenant, p.Anno, string(p.Data())})
		}
		held = append(held, out...)
	}
	release := func() {
		for _, p := range held {
			pool.Put(p)
		}
		held = held[:0]
	}
	us := simtime.Microsecond
	poll(100*us, 64, 64)
	poll(110*us, 64, 36) // 36 buffers left: the other 28 frames are lost mid-burst
	release()
	q.SetGenerator(gens(1))
	poll(120*us, 200, 100) // the whole backlog (112) wanted, the pool holds 100
	release()
	q.SetDown(true)
	poll(400*us, 64, 0) // 560 more arrivals overflow the 256-slot ring
	q.SetDown(false)
	poll(410*us, 64, 64)
	q.SetGenerator(gens(2))
	poll(410*us, 3, 3)
	poll(410*us, 1, 1)
	poll(410*us, 4, 4)
	release()
	delivered, dropped, allocFailed := q.Stats()
	if allocFailed != 28+12 || dropped <= allocFailed {
		t.Fatalf("history did not exercise its drops: dropped %d, alloc failures %d", dropped, allocFailed)
	}
	return recs, [4]uint64{delivered, dropped, allocFailed, q.HighWatermark()}
}

// TestPollBurstEqualsPerPacket: a queue materialises the same packets — frame
// bytes and every piece of metadata — and ends with the same counters
// whether its generator fills bursts, is reached one packet at a time
// through the adapter, or is swapped between the two mid-run.
func TestPollBurstEqualsPerPacket(t *testing.T) {
	for name, g := range map[string]Generator{
		"UDP4 attack": &gen.UDP4{FrameLen: 96, Flows: 64, Seed: 5, AttackFrac: 0.5, AttackPattern: []byte("/etc/passwd")},
		"CAIDA":       &gen.SyntheticCAIDA{Flows: 512, Seed: 6},
	} {
		if _, ok := g.(BurstFiller); !ok {
			t.Fatalf("%s has no FillBurst", name)
		}
		if _, ok := Generator(plainGen{g}).(BurstFiller); ok {
			t.Fatal("plainGen does not hide FillBurst")
		}
		want, wantCounters := driveRxHistory(t, func(int) Generator { return plainGen{g} })
		for variant, gens := range map[string]func(i int) Generator{
			"burst":                 func(int) Generator { return g },
			"plain → burst → plain": func(i int) Generator { return []Generator{plainGen{g}, g, plainGen{g}}[i] },
			"burst → plain → burst": func(i int) Generator { return []Generator{g, plainGen{g}, g}[i] },
		} {
			got, gotCounters := driveRxHistory(t, gens)
			if gotCounters != wantCounters {
				t.Errorf("%s, %s: counters %v, per-packet run %v", name, variant, gotCounters, wantCounters)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %s: %d packets, per-packet run %d", name, variant, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %s: packet %d (seq %d) differs from the per-packet run (seq %d)",
						name, variant, i, got[i].seq, want[i].seq)
				}
			}
		}
	}
}
