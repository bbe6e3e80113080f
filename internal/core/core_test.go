package core

import (
	"math"
	"strings"
	"testing"

	_ "nba/internal/apps/ids"
	_ "nba/internal/apps/ipsec"
	_ "nba/internal/apps/ipv4"
	_ "nba/internal/apps/ipv6"
	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/graph"
	"nba/internal/integrity"
	"nba/internal/invariant"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

const (
	ipv4Config = `FromInput() -> CheckIPHeader() -> IPLookup("entries=4096", "seed=42") -> DecIPTTL() -> ToOutput();`

	l2Config = `FromInput() -> L2Forward() -> ToOutput();`

	ipsecConfigTpl = `
		FromInput() -> CheckIPHeader() -> IPsecESPencap("sas=256")
			-> LoadBalance("%s")
			-> IPsecAES("sas=256") -> IPsecHMAC("sas=256") -> ToOutput();`
	// ipsecGPUConfig is bench.AppConfig("ipsec", "gpu"), which this
	// package's own tests cannot import.
	ipsecGPUConfig = `
		FromInput() -> CheckIPHeader() -> IPsecESPencap("sas=1024")
			-> LoadBalance("gpu")
			-> IPsecAES("sas=1024") -> IPsecHMAC("sas=1024") -> ToOutput();`
)

func quickCfg(graphCfg string, bpsPerPort float64, frameLen int) Config {
	return Config{
		Topology:          sysinfo.SingleSocketTopology(4, 2), // 3 workers, 2 ports
		GraphConfig:       graphCfg,
		Generator:         &gen.UDP4{FrameLen: frameLen, Flows: 1024, Seed: 1},
		OfferedBpsPerPort: bpsPerPort,
		Warmup:            2 * simtime.Millisecond,
		Duration:          8 * simtime.Millisecond,
		Seed:              7,
	}
}

func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestL2ForwardReachesOfferedRate(t *testing.T) {
	// 2 Gbps per port of 64 B frames is far below L2fwd capacity: TX must
	// essentially equal offered load with no drops.
	r := run(t, quickCfg(l2Config, 2e9, 64))
	if r.TxGbps < 3.8 || r.TxGbps > 4.1 {
		t.Errorf("TxGbps = %.2f, want ~4.0 (2 ports x 2G offered)", r.TxGbps)
	}
	if r.RxDropped != 0 {
		t.Errorf("dropped %d packets below capacity", r.RxDropped)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("packet leak: %d outstanding after drain", r.PoolOutstanding)
	}
}

func TestPacketConservation(t *testing.T) {
	// delivered = transmitted + dropped-in-graph (after full drain).
	r := run(t, quickCfg(ipv4Config, 3e9, 64))
	total := uint64(r.TxPPS*r.Measured.Seconds() + 0.5) // approximate; use counters instead
	_ = total
	if r.PoolOutstanding != 0 {
		t.Fatalf("%d packets leaked", r.PoolOutstanding)
	}
	if r.RxDelivered == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestIPv4OverloadDropsAtNIC(t *testing.T) {
	// 10 Gbps/port of 64 B frames on 3 workers exceeds CPU capacity: the
	// system must saturate and shed load at the RX queues, not crash or
	// leak.
	r := run(t, quickCfg(ipv4Config, 10e9, 64))
	if r.RxDropped == 0 {
		t.Error("overload produced no NIC drops")
	}
	if r.TxGbps <= 0 {
		t.Error("no throughput under overload")
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("packet leak under overload: %d", r.PoolOutstanding)
	}
}

func TestIPv4ThroughputScalesWithPacketSize(t *testing.T) {
	small := run(t, quickCfg(ipv4Config, 10e9, 64))
	large := run(t, quickCfg(ipv4Config, 10e9, 1500))
	if large.TxGbps <= small.TxGbps {
		t.Errorf("1500B (%.1fG) not faster than 64B (%.1fG)", large.TxGbps, small.TxGbps)
	}
	// Large packets at 10G/port on 2 ports should reach line rate.
	if large.TxGbps < 19 {
		t.Errorf("1500B TxGbps = %.2f, want ~20 (line rate)", large.TxGbps)
	}
}

func TestIPsecGPUOnlyOffloads(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "gpu"), 3e9, 256)
	r := run(t, cfg)
	if r.OffloadedPackets == 0 {
		t.Fatal("GPU-only run offloaded nothing")
	}
	if r.DeviceStats[0].Tasks == 0 {
		t.Error("device processed no tasks")
	}
	if r.TxGbps <= 0 {
		t.Error("no throughput")
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("packet leak through offload path: %d", r.PoolOutstanding)
	}
	// Datablock chaining: AES+HMAC fuse into one task of 2 kernels, so
	// tasks * packets-per-task must equal offloaded packets.
	if r.DeviceStats[0].Packets != r.OffloadedPackets {
		t.Errorf("device packets %d != offloaded %d", r.DeviceStats[0].Packets, r.OffloadedPackets)
	}
}

func TestIPsecCPUOnlyDoesNotTouchDevice(t *testing.T) {
	r := run(t, quickCfg(sprintfConfig(ipsecConfigTpl, "cpu"), 3e9, 256))
	if r.OffloadedPackets != 0 || r.DeviceStats[0].Tasks != 0 {
		t.Error("CPU-only run used the device")
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d", r.PoolOutstanding)
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.5"), 4e9, 256))
	b := run(t, quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.5"), 4e9, 256))
	if a.TxGbps != b.TxGbps || a.RxDropped != b.RxDropped || a.OffloadedPackets != b.OffloadedPackets {
		t.Errorf("same seed diverged: %.4f/%.4f G, %d/%d drops, %d/%d offloaded",
			a.TxGbps, b.TxGbps, a.RxDropped, b.RxDropped, a.OffloadedPackets, b.OffloadedPackets)
	}
	if a.Latency.Mean() != b.Latency.Mean() {
		t.Error("latency distributions diverged")
	}
}

func TestSeedChangesOutcomeSlightly(t *testing.T) {
	a := run(t, quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.5"), 4e9, 256))
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.5"), 4e9, 256)
	cfg.Seed = 999
	b := run(t, cfg)
	if a.OffloadedPackets == b.OffloadedPackets {
		t.Log("note: different seeds produced identical offload counts (possible but unlikely)")
	}
}

func TestAdaptiveRunsAndTraces(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "adaptive"), 4e9, 256)
	cfg.Duration = 30 * simtime.Millisecond
	cfg.ALBObserve = 500 * simtime.Microsecond
	cfg.ALBUpdate = 2 * simtime.Millisecond
	r := run(t, cfg)
	if len(r.LBTrace) == 0 {
		t.Fatal("adaptive run produced no controller trace")
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d", r.PoolOutstanding)
	}
}

func TestLatencyRecorded(t *testing.T) {
	r := run(t, quickCfg(l2Config, 1e9, 64))
	if r.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	// Minimum latency must be at least the external RTT fixture.
	if r.Latency.Min() < 13*simtime.Microsecond {
		t.Errorf("min latency %v below external RTT", r.Latency.Min())
	}
	if r.Latency.Min() > 30*simtime.Microsecond {
		t.Errorf("min latency %v implausibly high for L2fwd", r.Latency.Min())
	}
}

func TestWorkloadRateChange(t *testing.T) {
	// 1 -> 4 Gb/s per port at 5 ms, held to the end of arrivals (10 ms).
	cfg := quickCfg(l2Config, 1e9, 64)
	cfg.FaultPlan = &fault.Plan{Events: fault.Burst(5*simtime.Millisecond, 5*simtime.Millisecond, 4)}
	r := run(t, cfg)
	// Average over the window must sit between the two rates.
	if r.TxGbps < 2.1 || r.TxGbps > 7.9 {
		t.Errorf("TxGbps = %.2f, want between 2 and 8 (rate ramped mid-run)", r.TxGbps)
	}
}

func TestConfigValidation(t *testing.T) {
	base := quickCfg(l2Config, 1e9, 64)
	cases := []struct {
		name string
		mut  func(*Config)
		want string // in the error
	}{
		{"no graph", func(c *Config) { c.GraphConfig = "" }, "GraphConfig"},
		{"no generator", func(c *Config) { c.Generator = nil }, "Generator"},
		{"too many workers", func(c *Config) { c.WorkersPerSocket = 99 }, "WorkersPerSocket"},
		{"zero offered", func(c *Config) { c.OfferedBpsPerPort = 0 }, "OfferedBpsPerPort"},
		{"NaN offered", func(c *Config) { c.OfferedBpsPerPort = math.NaN() }, "OfferedBpsPerPort"},
		{"infinite offered", func(c *Config) { c.OfferedBpsPerPort = math.Inf(1) }, "OfferedBpsPerPort"},
		{"huge batch", func(c *Config) { c.CompBatchSize = 10000 }, "CompBatchSize"},
		{"bad graph", func(c *Config) { c.GraphConfig = "FromInput() -> Nope();" }, "Nope"},
		{"parse error", func(c *Config) { c.GraphConfig = "@@@" }, "@"},
		{"UDP4 frame too short", func(c *Config) { c.Generator = &gen.UDP4{FrameLen: 30} }, "Generator: gen: UDP4 frame length 30"},
		{"UDP4 frame too long", func(c *Config) { c.Generator = &gen.UDP4{FrameLen: 2000} }, "Generator: gen: UDP4 frame length 2000"},
		{"UDP4 attack fraction", func(c *Config) { c.Generator = &gen.UDP4{FrameLen: 64, AttackFrac: 2} }, "Generator: gen: UDP4 attack fraction 2"},
		{"UDP6 frame too short", func(c *Config) { c.Generator = &gen.UDP6{FrameLen: 50} }, "Generator: gen: UDP6 frame length 50"},
		{"bad generator change", func(c *Config) {
			c.GeneratorChanges = []GeneratorChange{{At: simtime.Millisecond, Generator: &gen.UDP4{FrameLen: 30}}}
		}, "GeneratorChanges[0]: gen: UDP4"},
		{"negative warmup", func(c *Config) { c.Warmup = -simtime.Millisecond }, "Warmup"},
		{"negative duration", func(c *Config) { c.Duration = -simtime.Millisecond }, "Duration"},
		{"negative drain grace", func(c *Config) { c.DrainGrace = -simtime.Millisecond }, "DrainGrace"},
		{"negative capture", func(c *Config) { c.CaptureTx = -1 }, "CaptureTx"},
		{"NaN integrity sample rate", func(c *Config) { c.Integrity = &integrity.Config{SampleRate: math.NaN()} }, "Integrity: integrity: sample rate"},
		{"NaN burst factor", func(c *Config) {
			c.FaultPlan = &fault.Plan{Events: []fault.Event{{At: simtime.Millisecond, Kind: fault.RateBurst, RateFactor: math.NaN()}}}
		}, "rate factor"},
		{"two devices on a socket", func(c *Config) {
			c.Topology = sysinfo.SingleSocketTopology(4, 2)
			c.Topology.Devices = append(c.Topology.Devices, sysinfo.Device{Kind: sysinfo.DevicePhi, Name: "phi0", Socket: 0})
		}, "devices gpu0 and phi0 share socket 0"},
	}
	for _, c := range cases {
		cfg := base
		c.mut(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%s: NewSystem accepted invalid config", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// stampDevice annotates every batch for the device without asking whether
// the socket has one, as LoadBalance("gpu") would if it did not check.
type stampDevice struct{ element.Base }

func (*stampDevice) Class() string { return "StampDevice" }

func (*stampDevice) ProcessBatch(ctx *element.ProcContext, b *batch.Batch) int {
	b.Anno[batch.AnnoDevice] = 1
	return 0
}

func init() {
	element.Register("StampDevice", func() element.Element { return &stampDevice{} })
}

// TestSocketWithoutDevice runs a two-socket machine whose second socket has
// no device. CPU-only balancing runs there and conserves every packet; a
// balancer that needs the device refuses the graph at construction; and a
// graph that annotates offloads anyway has the device-less socket's
// aggregates dropped as graph drops while the other socket offloads.
func TestSocketWithoutDevice(t *testing.T) {
	cfgFor := func(graphCfg string) Config {
		cfg := quickCfg(graphCfg, 2e9, 64)
		top := sysinfo.SingleSocketTopology(4, 2)
		top.Sockets = 2
		top.Ports = append(top.Ports,
			sysinfo.Port{ID: 2, Socket: 1, LineRateBps: 10e9},
			sysinfo.Port{ID: 3, Socket: 1, LineRateBps: 10e9})
		cfg.Topology = top
		cfg.Duration = 4 * simtime.Millisecond
		cfg.Checker = invariant.New()
		return cfg
	}
	check := func(t *testing.T, cfg Config) *Report {
		t.Helper()
		r := run(t, cfg)
		if r.TxPackets == 0 {
			t.Error("nothing transmitted")
		}
		if !r.Conserved() {
			t.Errorf("conservation broken: %+v", r.Counters)
		}
		if r.PoolOutstanding != 0 {
			t.Errorf("leak: %d packets outstanding", r.PoolOutstanding)
		}
		for _, v := range cfg.Checker.Violations() {
			t.Errorf("invariant violation: %+v", v)
		}
		return r
	}
	t.Run("lb=cpu", func(t *testing.T) {
		r := check(t, cfgFor(sprintfConfig(ipv4LBConfigTpl, "cpu")))
		if r.OffloadedPackets != 0 || r.GraphDrops != 0 {
			t.Errorf("CPU-only run offloaded %d and graph-dropped %d packets", r.OffloadedPackets, r.GraphDrops)
		}
	})
	t.Run("lb=gpu", func(t *testing.T) {
		_, err := NewSystem(cfgFor(sprintfConfig(ipv4LBConfigTpl, "gpu")))
		if err == nil || !strings.Contains(err.Error(), "requires an accelerator") {
			t.Fatalf("NewSystem: %v, want LoadBalance's missing-accelerator error", err)
		}
	})
	t.Run("stamped offload", func(t *testing.T) {
		r := check(t, cfgFor(strings.Replace(ipv4LBConfigTpl, `LoadBalance("%s")`, "StampDevice()", 1)))
		if r.OffloadedPackets == 0 {
			t.Error("the socket with a device offloaded nothing")
		}
		if r.GraphDrops == 0 {
			t.Error("the device-less socket's offloads were not dropped")
		}
	})
}

func TestDualSocketDefaultTopology(t *testing.T) {
	cfg := Config{
		GraphConfig:       ipv4Config,
		Generator:         &gen.UDP4{FrameLen: 1500, Flows: 1024, Seed: 1},
		OfferedBpsPerPort: 10e9,
		WorkersPerSocket:  7,
		Warmup:            2 * simtime.Millisecond,
		Duration:          6 * simtime.Millisecond,
		Seed:              3,
	}
	r := run(t, cfg)
	// 8 ports x 10G of 1500B frames: the full machine must hit line rate.
	if r.TxGbps < 78 {
		t.Errorf("TxGbps = %.2f, want ~80 (line rate on the paper's machine)", r.TxGbps)
	}
	if len(r.PerPortGbps) != 8 {
		t.Errorf("%d ports reported, want 8", len(r.PerPortGbps))
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d", r.PoolOutstanding)
	}
}

func TestBranchPredictionAblationEndToEnd(t *testing.T) {
	branchCfg := `
		b :: RandomWeightedBranch("0.05");
		FromInput() -> b;
		b[0] -> EchoBack() -> ToOutput();
		b[1] -> Discard();
	`
	with := quickCfg(branchCfg, 8e9, 64)
	withOpts := graph.Options{BranchPrediction: true, OffloadChaining: true}
	with.GraphOpts = &withOpts

	without := quickCfg(branchCfg, 8e9, 64)
	withoutOpts := graph.Options{BranchPrediction: false, OffloadChaining: true}
	without.GraphOpts = &withoutOpts

	rWith := run(t, with)
	rWithout := run(t, without)
	if rWith.TxGbps <= rWithout.TxGbps {
		t.Errorf("branch prediction (%.2fG) did not beat splitting (%.2fG)",
			rWith.TxGbps, rWithout.TxGbps)
	}
}

func sprintfConfig(tpl, alg string) string {
	out := ""
	for i := 0; i < len(tpl); i++ {
		if tpl[i] == '%' && i+1 < len(tpl) && tpl[i+1] == 's' {
			out += alg
			i++
			continue
		}
		out += string(tpl[i])
	}
	return out
}
