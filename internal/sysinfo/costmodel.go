package sysinfo

import (
	"fmt"
	"sort"

	"nba/internal/simtime"
)

// ElementCost is the CPU-side execution cost of one element, charged per
// packet: Fixed + PerByte*frameLen cycles.
type ElementCost struct {
	Fixed   simtime.Cycles
	PerByte float64
}

// Cycles returns the cost in cycles for a frame of the given length.
func (c ElementCost) Cycles(frameLen int) simtime.Cycles {
	return c.Fixed + simtime.Cycles(c.PerByte*float64(frameLen))
}

// KernelCost is the accelerator-side execution cost of one offloaded task:
// Launch + PerPacket*npkts + PerByte*payloadBytes.
type KernelCost struct {
	Launch    simtime.Time
	PerPacket simtime.Time
	PerByte   float64 // picoseconds per byte
}

// Duration returns the kernel execution time for a task covering npkts
// packets and bytes payload bytes.
func (k KernelCost) Duration(npkts, bytes int) simtime.Time {
	return k.Launch + simtime.Time(npkts)*k.PerPacket + simtime.Time(k.PerByte*float64(bytes))
}

// DeviceParams models one accelerator device class.
type DeviceParams struct {
	// CopyBytesPerSec is the effective host<->device streaming bandwidth of
	// the single half-duplex copy engine, including descriptor overhead and
	// pinned-buffer bookkeeping. Calibrated (not a PCIe spec number) so that
	// the paper's measured IPsec/IDS GPU curves reproduce: IPsec moves
	// payload both directions and tops out near 18 Gbps, IDS moves payload
	// host-to-device only and tops out near 35 Gbps (paper §4.4, §4.6).
	CopyBytesPerSec float64
	// KernelScale scales every kernel's Duration; 1.0 for the GPU. The
	// Phi-like device uses a different scale (paper §7 extension).
	KernelScale float64
	// LaunchExtra is added to every kernel launch (command-queue overhead).
	LaunchExtra simtime.Time
}

// CostModel holds every calibration constant of the simulation. Each value
// is annotated with the paper observation it reproduces; EXPERIMENTS.md
// records how close the reproduction lands.
type CostModel struct {
	// ---- Packet IO (DPDK substitute) ----

	// RxBurstFixed is charged once per RX poll of one queue; RxPerPacket per
	// received packet. Together with TxBatchFixed/TxPerPacket these model
	// DPDK's amortised per-batch IO cost (paper §2: "batch processing for
	// packet IO ... is the intrinsic part").
	RxBurstFixed   simtime.Cycles
	RxPerPacket    simtime.Cycles
	TxBatchFixed   simtime.Cycles
	TxPerPacket    simtime.Cycles
	CompletionPoll simtime.Cycles // per IO-loop check of the offload completion queue

	// IdlePoll is how long a worker waits before re-polling when an IO loop
	// iteration found no work at all.
	IdlePoll simtime.Time
	// MaxIterTime bounds one IO-loop iteration in virtual time: the worker
	// stops pulling more RX bursts once it has this much work queued. Keeps
	// the loop responsive under very expensive per-packet processing.
	MaxIterTime simtime.Time

	// ---- Batch-oriented modular pipeline (paper §3.2) ----

	// BatchAlloc/BatchFree: allocating and releasing a packet-batch object
	// from the batch pool. The dominant term of the split penalty in Fig. 1
	// ("the primary overhead (25%) comes from memory management").
	BatchAlloc simtime.Cycles
	BatchFree  simtime.Cycles
	// BatchInitPerPacket: wrapping one packet pointer + result slot +
	// annotation into a batch.
	BatchInitPerPacket simtime.Cycles
	// ElementDispatch is the per-element, per-batch dispatch overhead
	// (virtual call, prefetch, branch setup). Paying this per packet instead
	// of per batch is what computation batching removes (Fig. 9).
	ElementDispatch simtime.Cycles
	// GraphTraverse is charged per edge traversal of one batch.
	GraphTraverse simtime.Cycles
	// SplitPerPacket: moving one packet pointer+annotations into a split
	// batch (Fig. 1 "splitting into new batches").
	SplitPerPacket simtime.Cycles
	// MaskPerPacket: masking one minority packet in a reused batch
	// (Fig. 10 "masking branched packets").
	MaskPerPacket simtime.Cycles
	// BranchCheck: per-batch bookkeeping of the branch predictor.
	BranchCheck simtime.Cycles

	// ---- Offloading (paper §3.3) ----

	// OffloadEnqueue: worker-side cost to hand an aggregated task to the
	// device thread (shared ring + doorbell).
	OffloadEnqueue simtime.Cycles
	// OffloadPrePerPacket / OffloadPostPerPacket: datablock pre/postprocessing
	// on the worker (gather input ranges, scatter results).
	OffloadPrePerPacket  simtime.Cycles
	OffloadPostPerPacket simtime.Cycles
	// DeviceTaskFixed + DeviceTaskPerWorker: device-thread CPU cost per task.
	// The per-worker term models the CUDA runtime's internal locking that the
	// paper profiles at 20-30% of the device-thread core (§4.3), which is
	// what bends the GPU-only scalability curve in Fig. 11b.
	DeviceTaskFixed     simtime.Cycles
	DeviceTaskPerWorker simtime.Cycles

	// MaxAggBatches is the offload aggregation limit in batches (paper §3.3:
	// "we set the maximum aggregate size to 32 batches").
	MaxAggBatches int
	// MaxAggDelay bounds how long a pending aggregate may wait before being
	// flushed to the device even if not full.
	MaxAggDelay simtime.Time
	// MaxDeviceBacklog is the admission threshold: a worker stops pulling
	// RX while its socket's device is scheduled busier than this, bounding
	// offload queueing latency (the real system's pinned-buffer limit).
	MaxDeviceBacklog simtime.Time

	// ---- Scaling imperfections ----

	// MemContentionPerWorker inflates per-byte costs by this fraction for
	// each additional active worker on the same socket (shared LLC/membw;
	// the mild per-core droop in Fig. 11a).
	MemContentionPerWorker float64
	// NUMAPenalty multiplies element costs when a worker processes packets
	// of a remote socket's port (§2: remote-socket memory costs 40-50%
	// latency and 20-30% throughput). The default resource mapping keeps
	// everything local, so this only shows up in the ablation bench.
	NUMAPenalty float64

	// ---- Measurement fixtures ----

	// ExternalRTT is the fixed round-trip component outside the framework
	// (generator, cables, switch, NIC MAC/PHY both ways). Calibrated so the
	// minimal L2 forwarding latency matches the paper's 16.1 us (§4.2).
	ExternalRTT simtime.Time

	// ---- Per-element-class costs ----

	// Elements maps element class name to CPU-side cost. Classes not present
	// fall back to DefaultElementCost.
	Elements           map[string]ElementCost
	DefaultElementCost ElementCost

	// Kernels maps offloadable element class name to device kernel cost.
	Kernels map[string]KernelCost

	// Devices maps device kind to its parameters.
	Devices map[DeviceKind]DeviceParams
}

// Default returns the calibrated cost model. The calibration targets are the
// paper's Figures 1, 2, 9-14 and the §4 text; see EXPERIMENTS.md for the
// paper-vs-measured record.
func Default() *CostModel {
	return &CostModel{
		RxBurstFixed:   120,
		RxPerPacket:    60,
		TxBatchFixed:   120,
		TxPerPacket:    50,
		CompletionPoll: 40,
		IdlePoll:       1 * simtime.Microsecond,
		MaxIterTime:    100 * simtime.Microsecond,

		// Batch alloc/free are deliberately heavy: the paper measures that
		// the primary batch-split overhead (25% of the 40% total) is memory
		// management — allocating new batches and releasing the old one.
		BatchAlloc:         2000,
		BatchFree:          400,
		BatchInitPerPacket: 6,
		ElementDispatch:    230,
		GraphTraverse:      30,
		SplitPerPacket:     150,
		MaskPerPacket:      5,
		BranchCheck:        25,

		OffloadEnqueue:       600,
		OffloadPrePerPacket:  150,
		OffloadPostPerPacket: 120,
		DeviceTaskFixed:      20000,
		DeviceTaskPerWorker:  4000,
		MaxAggBatches:        32,
		MaxAggDelay:          600 * simtime.Microsecond,
		MaxDeviceBacklog:     400 * simtime.Microsecond,

		MemContentionPerWorker: 0.012,
		NUMAPenalty:            1.30,

		ExternalRTT: 13 * simtime.Microsecond,

		DefaultElementCost: ElementCost{Fixed: 80},
		Elements: map[string]ElementCost{
			// No-op element used by the composition-overhead experiment
			// (§4.2: ~1 us added by 9 no-op elements, i.e. ~110 ns each,
			// which at 2.6 GHz is ~290 cycles/batch; per-packet share tiny).
			"NoOp": {Fixed: 4},

			"L2Forward":      {Fixed: 120, PerByte: 0.5},
			"CheckIPHeader":  {Fixed: 140, PerByte: 0.25},
			"CheckIP6Header": {Fixed: 140, PerByte: 0.25},
			"DecIPTTL":       {Fixed: 70},
			"DecIP6HLIM":     {Fixed: 70},
			"Classifier":     {Fixed: 90},
			"Discard":        {Fixed: 10},
			"EchoBack":       {Fixed: 45, PerByte: 0.4},
			// The synthetic branch element itself must be nearly free so the
			// Figure 1/10 sweeps isolate the split-vs-mask overhead.
			"RandomWeightedBranch": {Fixed: 10},

			// DIR-24-8: at most two dependent memory accesses (paper §4.1).
			"IPLookup": {Fixed: 260},
			// Waldvogel binary search: up to seven accesses (paper §4.1).
			"LookupIP6Route": {Fixed: 650},

			// IPsec CPU path with AES-NI (envelope-context reuse trick,
			// §4.1): calibrated to ~14 Gbps @64 B and ~33 Gbps @1500 B
			// CPU-only on 14 workers (Fig. 12c).
			"IPsecESPencap": {Fixed: 480, PerByte: 0.2},
			"IPsecAES":      {Fixed: 650, PerByte: 4.5},
			"IPsecHMAC":     {Fixed: 280, PerByte: 3.0},

			// IDS: Aho-Corasick + PCRE-style DFA over full payload;
			// calibrated so the GPU speedup lands in the paper's 6-47x band.
			"IDSMatchAC":   {Fixed: 900, PerByte: 45},
			"IDSMatchRE":   {Fixed: 900, PerByte: 70},
			"IDSRuleMatch": {Fixed: 1400, PerByte: 95},

			"IPFilter": {Fixed: 120},
		},

		Kernels: map[string]KernelCost{
			// IPv4 lookup kernel: calibrated so GPU-only trails CPU-only by
			// 0-37% (Fig. 12a).
			"IPLookup": {Launch: 15 * simtime.Microsecond, PerPacket: 40 * simtime.Nanosecond},
			// IPv6 kernel: GPU-only leads CPU-only by 0-75% (Fig. 12b).
			"LookupIP6Route": {Launch: 15 * simtime.Microsecond, PerPacket: 30 * simtime.Nanosecond},
			// IPsec kernels are per-byte dominated (crypto touches every
			// payload byte): a 2048-packet 64 B task takes ~186 us combined,
			// near the paper's profiled ~140 us (100 HMAC + 40 AES, §4.6),
			// and MTU-sized frames become kernel-bound — which is why the
			// paper's GPU loses to AES-NI CPUs at large packets (Fig. 12c).
			"IPsecAES":  {Launch: 7 * simtime.Microsecond, PerPacket: 4 * simtime.Nanosecond, PerByte: 200},
			"IPsecHMAC": {Launch: 8 * simtime.Microsecond, PerPacket: 4 * simtime.Nanosecond, PerByte: 500},
			// IDS kernels: copy-bound at all sizes; kernel itself cheap.
			"IDSMatchAC":   {Launch: 5 * simtime.Microsecond, PerPacket: 8 * simtime.Nanosecond},
			"IDSMatchRE":   {Launch: 5 * simtime.Microsecond, PerPacket: 7 * simtime.Nanosecond},
			"IDSRuleMatch": {Launch: 6 * simtime.Microsecond, PerPacket: 14 * simtime.Nanosecond},
		},

		Devices: map[DeviceKind]DeviceParams{
			DeviceGPU: {CopyBytesPerSec: 2.2e9, KernelScale: 1.0},
			// The Phi-like device: slower kernels, slightly faster copies,
			// heavier launch — a plausibly different accelerator profile for
			// the §7 extension bench.
			DevicePhi: {CopyBytesPerSec: 2.8e9, KernelScale: 2.2, LaunchExtra: 10 * simtime.Microsecond},
		},
	}
}

// ElementCostOf returns the cost entry for an element class, falling back to
// DefaultElementCost.
func (m *CostModel) ElementCostOf(class string) ElementCost {
	if c, ok := m.Elements[class]; ok {
		return c
	}
	return m.DefaultElementCost
}

// KernelCostOf returns the kernel cost for an offloadable element class.
// Unknown classes get a generic mid-range kernel so that experiments with
// custom elements still run.
func (m *CostModel) KernelCostOf(class string) KernelCost {
	if k, ok := m.Kernels[class]; ok {
		return k
	}
	return KernelCost{Launch: 15 * simtime.Microsecond, PerPacket: 40 * simtime.Nanosecond}
}

// DeviceParamsOf returns parameters for a device kind.
func (m *CostModel) DeviceParamsOf(kind DeviceKind) (DeviceParams, error) {
	p, ok := m.Devices[kind]
	if !ok {
		return DeviceParams{}, fmt.Errorf("sysinfo: no device parameters for kind %v", kind)
	}
	return p, nil
}

// Validate checks the model for values that would break the simulation.
func (m *CostModel) Validate() error {
	if m.MaxAggBatches <= 0 {
		return fmt.Errorf("sysinfo: MaxAggBatches must be positive, have %d", m.MaxAggBatches)
	}
	if m.IdlePoll <= 0 {
		return fmt.Errorf("sysinfo: IdlePoll must be positive, have %v", m.IdlePoll)
	}
	// Iterate device kinds in sorted order so the first-reported error is
	// stable across runs (map order would make it flap).
	kinds := make([]int, 0, len(m.Devices))
	for k := range m.Devices {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, ki := range kinds {
		k := DeviceKind(ki)
		d := m.Devices[k]
		if d.CopyBytesPerSec <= 0 {
			return fmt.Errorf("sysinfo: device %v has non-positive copy bandwidth", k)
		}
		if d.KernelScale <= 0 {
			return fmt.Errorf("sysinfo: device %v has non-positive kernel scale", k)
		}
	}
	return nil
}
