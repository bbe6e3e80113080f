package core

import (
	"testing"

	"nba/internal/apps/ipsec"
	"nba/internal/element"
	"nba/internal/gen"
	"nba/internal/graph"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

// espVerifier is a test element spliced in after the IPsec chain: it checks
// that every frame it sees is a structurally valid, correctly authenticated
// ESP packet — proving the *offloaded* device path really encrypted and
// authenticated the packets, not just accounted for them.
type espVerifier struct {
	element.Base
	db *ipsec.SADB

	Checked uint64
	Bad     uint64
}

func (*espVerifier) Class() string { return "ESPVerifier" }

func (e *espVerifier) Configure(ctx *element.ConfigContext, args []string) error {
	// Same deterministic parameters as the pipeline's SADB ("sas=256",
	// default seed), so keys match.
	db, err := ipsec.NewSADB(256, 99)
	if err != nil {
		return err
	}
	e.db = db
	return nil
}

func (e *espVerifier) Process(ctx *element.ProcContext, pkt *packet.Packet) int {
	e.Checked++
	f := pkt.Data()
	outer := f[packet.EthHdrLen:]
	if packet.IPv4Proto(outer) != packet.ProtoESP {
		e.Bad++
		return 0
	}
	ok, err := ipsec.Verify(pkt, e.db)
	if err != nil || !ok {
		e.Bad++
	}
	return 0
}

// espVerifiers collects every ESPVerifier the registry builds.
var espVerifiers []*espVerifier

func init() {
	element.Register("ESPVerifier", func() element.Element {
		v := &espVerifier{}
		espVerifiers = append(espVerifiers, v)
		return v
	})
}

func TestOffloadedIPsecFramesAreCryptographicallyValid(t *testing.T) {
	espVerifiers = nil
	cfg := Config{
		Topology: sysinfo.SingleSocketTopology(4, 2),
		GraphConfig: `
			FromInput() -> CheckIPHeader() -> IPsecESPencap("sas=256")
				-> LoadBalance("gpu")
				-> IPsecAES("sas=256") -> IPsecHMAC("sas=256")
				-> ESPVerifier() -> ToOutput();`,
		Generator:         &gen.UDP4{FrameLen: 256, Flows: 512, Seed: 4},
		OfferedBpsPerPort: 2e9,
		Warmup:            2 * simtime.Millisecond,
		Duration:          10 * simtime.Millisecond,
		Seed:              5,
	}
	r := run(t, cfg)
	if r.OffloadedPackets == 0 {
		t.Fatal("nothing offloaded")
	}
	var checked, bad uint64
	for _, v := range espVerifiers {
		checked += v.Checked
		bad += v.Bad
	}
	if checked == 0 {
		t.Fatal("verifier saw no packets")
	}
	if bad != 0 {
		t.Fatalf("%d of %d offloaded frames failed ESP verification", bad, checked)
	}
}

func TestLowLoadAggregationFlushBoundsLatency(t *testing.T) {
	// At light load an offload aggregate never fills; the age-based flush
	// (MaxAggDelay) plus idle flush must still bound latency.
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "gpu"), 5e8, 256)
	cfg.Duration = 15 * simtime.Millisecond
	r := run(t, cfg)
	if r.OffloadedPackets == 0 {
		t.Fatal("nothing offloaded at low load")
	}
	cm := sysinfo.Default()
	bound := cm.MaxAggDelay + 2*simtime.Millisecond
	if max := r.Latency.Max(); max > bound {
		t.Errorf("max latency %v exceeds aggregation+device bound %v", max, bound)
	}
}

func TestDeviceAdmissionBoundsQueueing(t *testing.T) {
	// Under heavy overload the device-backlog admission control must keep
	// offload queueing bounded: p99 stays within a few task-service times
	// rather than growing with the queue.
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "gpu"), 10e9, 64)
	cfg.Duration = 15 * simtime.Millisecond
	r := run(t, cfg)
	if r.RxDropped == 0 {
		t.Error("overloaded GPU run shed no load at the NIC")
	}
	// Latency is dominated by bounded NIC-queue wait plus bounded device
	// backlog — it must not grow with the (unbounded) overload.
	if p99 := r.Latency.Percentile(99); p99 > 10*simtime.Millisecond {
		t.Errorf("p99 latency %v despite admission control", p99)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d", r.PoolOutstanding)
	}
}

func TestOffloadChainingReducesCopies(t *testing.T) {
	mk := func(chaining bool) *Report {
		cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "gpu"), 4e9, 256)
		g := graph.Options{BranchPrediction: true, OffloadChaining: chaining}
		cfg.GraphOpts = &g
		return run(t, cfg)
	}
	with := mk(true)
	without := mk(false)
	// Without chaining, AES and HMAC each become a device task over the
	// same packets, doubling device packet traffic and H2D bytes.
	wp, wop := with.DeviceStats[0].Packets, without.DeviceStats[0].Packets
	if wop < wp*18/10 || wop > wp*22/10 {
		t.Errorf("device packets: chaining off %d vs on %d — expected ~2x", wop, wp)
	}
	wb, wob := with.DeviceStats[0].H2DBytes, without.DeviceStats[0].H2DBytes
	if wob < wb*18/10 {
		t.Errorf("H2D bytes: chaining off %d vs on %d — expected ~2x (duplicate copies)", wob, wb)
	}
	if without.TxGbps >= with.TxGbps {
		t.Errorf("chaining off (%.2fG) not slower than on (%.2fG)", without.TxGbps, with.TxGbps)
	}
	if with.PoolOutstanding != 0 || without.PoolOutstanding != 0 {
		t.Error("leak in chained/unchained offload")
	}
}

func TestALBReconvergesAfterWorkloadShift(t *testing.T) {
	// Shift from a GPU-favouring to a CPU-favouring IPsec workload mid-run
	// and check the controller moves W downward (paper §3.4: perturbations
	// let w find a new convergence point).
	cfg := Config{
		GraphConfig:       sprintfConfig(ipsecConfigTpl, "adaptive"),
		Generator:         &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1},
		OfferedBpsPerPort: 10e9,
		WorkersPerSocket:  7,
		Warmup:            5 * simtime.Millisecond,
		Duration:          150 * simtime.Millisecond,
		ALBObserve:        250 * simtime.Microsecond,
		ALBUpdate:         1 * simtime.Millisecond,
		LatencySample:     64,
		Seed:              3,
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 64B IPsec favours the GPU: W should have climbed well above start.
	if r.FinalW < 0.6 {
		t.Errorf("64B IPsec: final W = %v, want > 0.6 (GPU-favouring)", r.FinalW)
	}
	if len(r.LBTrace) < 20 {
		t.Errorf("only %d controller updates", len(r.LBTrace))
	}
}

func TestBoundedLatencyBalancerAvoidsGPU(t *testing.T) {
	// At light load, throughput is the same at any offload fraction, but
	// the GPU path adds ~600us of aggregation+device latency. With a 100us
	// p99 bound the bounded-latency controller must park W at ~0; the
	// unbounded controller has no such pressure.
	base := Config{
		Topology:          sysinfo.SingleSocketTopology(4, 2),
		GraphConfig:       sprintfConfig(ipsecConfigTpl, "adaptive"),
		Generator:         &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1},
		OfferedBpsPerPort: 0.5e9,
		Warmup:            5 * simtime.Millisecond,
		Duration:          120 * simtime.Millisecond,
		ALBObserve:        250 * simtime.Microsecond,
		ALBUpdate:         1 * simtime.Millisecond,
		Seed:              9,
	}
	bounded := base
	bounded.ALBLatencyBound = 100 * simtime.Microsecond
	rB := run(t, bounded)
	if rB.FinalW > 0.15 {
		t.Errorf("bounded: final W = %v, want ~0 (GPU violates the bound)", rB.FinalW)
	}
	// And the resulting p99 respects the bound (CPU path keeps up easily).
	if p99 := rB.Latency.Percentile(99); p99 > 400*simtime.Microsecond {
		t.Errorf("bounded: overall p99 = %v (includes convergence transient), want well under 400us", p99)
	}
	if len(rB.LBTrace) == 0 {
		t.Error("bounded controller produced no trace")
	}
}

// TestControlCellWindowCoversOneUpdate: a bounded controller's lanes record
// into their control cell's window, and each ALB update reads the window
// and empties it, so an update sees only the latency since the last one.
func TestControlCellWindowCoversOneUpdate(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "adaptive"), 0.5e9, 64)
	cfg.ALBLatencyBound = 100 * simtime.Microsecond
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.cells[0][0]
	for _, w := range s.workers {
		if got := w.lanes[0].recent; (w.socket == 0) != (got == &c.window) {
			t.Fatalf("worker %d (socket %d) records into %p, cell window %p", w.id, w.socket, got, &c.window)
		}
		if w.socket == 0 {
			w.lanes[0].recent.Record(simtime.Millisecond)
		}
	}
	c.update(s) // p99 over the bound: the latency step
	c.update(s) // the step's wait
	c.update(s) // an empty window: the throughput hill-climb
	tr := c.ctl.Trace
	if len(tr) != 2 || tr[0].Throughput >= 0 || tr[1].Throughput < 0 {
		t.Errorf("control steps %+v, want a latency step (negative p99) then a hill-climb step", tr)
	}
	if n := c.window.Count(); n != 0 {
		t.Errorf("window holds %d samples after an update", n)
	}
}

func TestGeneratorChangeMidRun(t *testing.T) {
	// Swap from 64B to 1024B traffic mid-run: the packet rate must drop
	// (same offered wire rate, bigger frames) and the system must stay
	// leak-free across the change.
	cfg := Config{
		Topology:          sysinfo.SingleSocketTopology(4, 2),
		GraphConfig:       `FromInput() -> L2Forward() -> ToOutput();`,
		Generator:         &gen.UDP4{FrameLen: 64, Flows: 256, Seed: 1},
		OfferedBpsPerPort: 2e9,
		Warmup:            1 * simtime.Millisecond,
		Duration:          10 * simtime.Millisecond,
		Seed:              6,
		GeneratorChanges: []GeneratorChange{
			{At: 6 * simtime.Millisecond, Generator: &gen.UDP4{FrameLen: 1024, Flows: 256, Seed: 2}},
		},
	}
	r := run(t, cfg)
	if r.PoolOutstanding != 0 {
		t.Errorf("leak across generator change: %d", r.PoolOutstanding)
	}
	// Wire throughput stays at the offered 4G despite the frame-size jump.
	if r.TxGbps < 3.7 || r.TxGbps > 4.2 {
		t.Errorf("TxGbps = %.2f across generator change, want ~4", r.TxGbps)
	}
	if r.RxDropped != 0 {
		t.Errorf("%d drops below capacity", r.RxDropped)
	}
}
