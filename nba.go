// Package nba is a Go reproduction of NBA (Network Balancing Act), the
// EuroSys 2015 high-performance packet processing framework for
// heterogeneous processors.
//
// It provides a Click-style modular pipeline with batch processing,
// declarative GPU offloading and adaptive CPU/GPU load balancing, running
// on a deterministic virtual-time simulation of the paper's hardware
// platform (dual-socket CPUs, multi-queue 10 GbE NICs, discrete GPUs).
// Packet contents and application algorithms (DIR-24-8 and Waldvogel route
// lookup, AES-CTR/HMAC-SHA1 IPsec, Aho-Corasick/regex IDS) execute for
// real; only time is simulated.
//
// Quick start:
//
//	cfg := nba.Config{
//	    GraphConfig: `FromInput() -> L2Forward() -> ToOutput();`,
//	    Generator:   &nba.UDP4{FrameLen: 64, Flows: 1024, Seed: 1},
//	    OfferedBpsPerPort: 10e9,
//	}
//	sys, err := nba.NewSystem(cfg)
//	report, err := sys.Run()
//	fmt.Println(report.TxGbps)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured record.
package nba

import (
	"nba/internal/batch"
	"nba/internal/core"
	"nba/internal/element"
	"nba/internal/gen"
	"nba/internal/graph"
	"nba/internal/lb"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/sysinfo"

	// Register the bundled sample applications' elements so configurations
	// can use IPLookup, LookupIP6Route, IPsec*, IDSMatch* and LoadBalance.
	_ "nba/internal/apps/ids"
	_ "nba/internal/apps/ipsec"
	_ "nba/internal/apps/ipv4"
	_ "nba/internal/apps/ipv6"
	_ "nba/internal/lb"
)

// --- system assembly ---

// Config describes one system run. See core.Config for field documentation.
type Config = core.Config

// System is an assembled NBA instance.
type System = core.System

// Report is the outcome of a run.
type Report = core.Report

// NewSystem builds a system from the configuration.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// --- hardware model ---

// Topology describes the simulated machine.
type Topology = sysinfo.Topology

// CostModel holds the calibration constants of the simulation.
type CostModel = sysinfo.CostModel

// DefaultTopology is the paper's Table 3 machine.
func DefaultTopology() *Topology { return sysinfo.DefaultTopology() }

// SingleSocketTopology is a small machine for experiments and tests.
func SingleSocketTopology(cores, ports int) *Topology {
	return sysinfo.SingleSocketTopology(cores, ports)
}

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() *CostModel { return sysinfo.Default() }

// --- elements ---

// Element is a Click-style packet-processing module's identity (class,
// configuration, output ports). Its computation is exactly one of the three
// forms below.
type Element = element.Element

// PacketElement handles one packet at a time; the framework runs the loop.
type PacketElement = element.PacketElement

// BatchElement processes whole batches without decomposing them.
type BatchElement = element.BatchElement

// Offloadable elements declare datablocks and one batch kernel, which the
// framework runs on the CPU or on a device.
type Offloadable = element.Offloadable

// Datablock declares offload input/output data (paper Table 2).
type Datablock = element.Datablock

// ConfigContext is passed to Element.Configure.
type ConfigContext = element.ConfigContext

// ProcContext is passed to an element's compute function.
type ProcContext = element.ProcContext

// Packet is one frame plus metadata.
type Packet = packet.Packet

// Batch is a set of packets traversing the pipeline together.
type Batch = batch.Batch

// GraphOptions toggles branch prediction and offload chaining.
type GraphOptions = graph.Options

// Drop is the result that discards a packet.
const Drop = element.Drop

// RegisterElement binds a class name usable in configurations to a factory.
func RegisterElement(class string, factory func() Element) {
	element.Register(class, factory)
}

// NewClassicAdapter wraps a classic Click-style per-packet handler as an
// element (paper §7, element migration).
func NewClassicAdapter(class string, outPorts int, handler func(*ProcContext, *Packet) int) Element {
	return element.NewClassicAdapter(class, outPorts, handler)
}

// --- traffic generation ---

// UDP4 generates fixed-size random IPv4/UDP traffic.
type UDP4 = gen.UDP4

// UDP6 generates fixed-size random IPv6/UDP traffic.
type UDP6 = gen.UDP6

// SyntheticCAIDA generates the CAIDA-2013-like size/flow mix, the stand-in
// for the paper's trace.
type SyntheticCAIDA = gen.SyntheticCAIDA

// --- load balancing ---

// LBController is the adaptive load-balancing control loop (paper §3.4).
type LBController = lb.Controller

// --- virtual time ---

// Time is a point in virtual time (picoseconds).
type Time = simtime.Time

// Common durations for Config fields.
const (
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)
