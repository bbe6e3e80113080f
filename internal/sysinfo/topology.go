// Package sysinfo describes the simulated hardware platform: CPU sockets,
// cores, NUMA nodes, NICs and accelerator devices, together with the
// calibrated cost model that stands in for real silicon.
//
// The default topology reproduces the paper's Table 3 machine: dual Intel
// Xeon E5-2670 (8 cores each, 2.6 GHz), four dual-port 10 GbE NICs (eight
// ports total, four per socket) and two desktop-class GPUs (one per socket).
package sysinfo

import "fmt"

// DeviceKind identifies a class of accelerator in the simulated platform.
type DeviceKind int

const (
	// DeviceGPU models a discrete CUDA-style GPU (the paper's GTX 680).
	DeviceGPU DeviceKind = iota
	// DevicePhi models a Xeon-Phi-like many-core coprocessor behind the
	// same OpenCL-ish shim (paper §7, "extension to other accelerators").
	DevicePhi
)

func (k DeviceKind) String() string {
	switch k {
	case DeviceGPU:
		return "gpu"
	case DevicePhi:
		return "phi"
	default:
		return fmt.Sprintf("device(%d)", int(k))
	}
}

// Device is one accelerator attached to a socket.
type Device struct {
	Kind   DeviceKind
	Name   string
	Socket int
	// Cores is the number of parallel processing cores (informational;
	// the performance model lives in CostModel / gpu.Params).
	Cores int
}

// Port is one NIC port.
type Port struct {
	ID     int
	Socket int
	// LineRateBps is the physical line rate in bits per second on the wire
	// (framing overhead included when accounting throughput).
	LineRateBps float64
}

// Topology is the simulated machine.
type Topology struct {
	Sockets        int
	CoresPerSocket int
	CoreFreqHz     float64
	Ports          []Port
	// Devices holds at most one accelerator per socket (paper §3.2: each
	// socket's GPU gets that socket's last core as its device thread).
	// Fault and reconfiguration plans name a device by its index here.
	Devices []Device
	// RxQueueCapacity is the per-HW-RX-queue capacity in packets.
	RxQueueCapacity int
}

// DefaultTopology returns the paper's Table 3 machine: 2x8 cores @2.6 GHz,
// 8x10GbE (4 per socket), one GPU per socket.
func DefaultTopology() *Topology {
	t := &Topology{
		Sockets:         2,
		CoresPerSocket:  8,
		CoreFreqHz:      2.6e9,
		RxQueueCapacity: 4096,
	}
	for i := 0; i < 8; i++ {
		t.Ports = append(t.Ports, Port{ID: i, Socket: i / 4, LineRateBps: 10e9})
	}
	for s := 0; s < 2; s++ {
		t.Devices = append(t.Devices, Device{
			Kind: DeviceGPU, Name: fmt.Sprintf("gpu%d", s), Socket: s, Cores: 1536,
		})
	}
	return t
}

// SingleSocketTopology returns a one-socket machine with the given core and
// port counts, useful for small tests and the Figure 6 example mapping.
func SingleSocketTopology(cores, ports int) *Topology {
	t := &Topology{
		Sockets:         1,
		CoresPerSocket:  cores,
		CoreFreqHz:      2.6e9,
		RxQueueCapacity: 4096,
	}
	for i := 0; i < ports; i++ {
		t.Ports = append(t.Ports, Port{ID: i, Socket: 0, LineRateBps: 10e9})
	}
	t.Devices = append(t.Devices, Device{Kind: DeviceGPU, Name: "gpu0", Socket: 0, Cores: 1536})
	return t
}

// Validate checks internal consistency.
func (t *Topology) Validate() error {
	if t.Sockets <= 0 {
		return fmt.Errorf("sysinfo: topology needs at least one socket, have %d", t.Sockets)
	}
	if t.CoresPerSocket < 2 {
		return fmt.Errorf("sysinfo: need >=2 cores per socket (workers + device thread), have %d", t.CoresPerSocket)
	}
	if t.CoreFreqHz <= 0 {
		return fmt.Errorf("sysinfo: core frequency must be positive, have %g", t.CoreFreqHz)
	}
	if len(t.Ports) == 0 {
		return fmt.Errorf("sysinfo: topology has no NIC ports")
	}
	for _, p := range t.Ports {
		if p.Socket < 0 || p.Socket >= t.Sockets {
			return fmt.Errorf("sysinfo: port %d on invalid socket %d", p.ID, p.Socket)
		}
		if p.LineRateBps <= 0 {
			return fmt.Errorf("sysinfo: port %d has non-positive line rate", p.ID)
		}
	}
	for i, d := range t.Devices {
		if d.Socket < 0 || d.Socket >= t.Sockets {
			return fmt.Errorf("sysinfo: device %s on invalid socket %d", d.Name, d.Socket)
		}
		if j, _ := t.DeviceOnSocket(d.Socket); j != i {
			return fmt.Errorf("sysinfo: devices %s and %s share socket %d; a socket has at most one",
				t.Devices[j].Name, d.Name, d.Socket)
		}
	}
	if t.RxQueueCapacity <= 0 {
		return fmt.Errorf("sysinfo: RX queue capacity must be positive, have %d", t.RxQueueCapacity)
	}
	return nil
}

// PortsOnSocket returns the IDs of ports attached to the given socket.
func (t *Topology) PortsOnSocket(s int) []int {
	var ids []int
	for _, p := range t.Ports {
		if p.Socket == s {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// DeviceOnSocket returns the index into Devices of the given socket's
// device, and false when the socket has none.
func (t *Topology) DeviceOnSocket(s int) (int, bool) {
	for i, d := range t.Devices {
		if d.Socket == s {
			return i, true
		}
	}
	return -1, false
}

// MaxWorkersPerSocket is the number of cores available for worker threads
// after dedicating one core per socket to the device thread (paper §3.2,
// Figure 6: "the last CPU core is dedicated for the device thread").
func (t *Topology) MaxWorkersPerSocket() int { return t.CoresPerSocket - 1 }

// WireOverheadBytes is the per-frame Ethernet overhead on the wire that is
// not part of the frame buffer: 7 B preamble + 1 B SFD + 12 B inter-frame
// gap. Throughput figures in the paper (and here) are wire-rate Gbps, so a
// 64 B frame at 10 GbE line rate is 14.88 Mpps.
const WireOverheadBytes = 20

// WireBits returns the number of bits one frame of the given length occupies
// on the wire, including framing overhead.
func WireBits(frameLen int) float64 { return float64(frameLen+WireOverheadBytes) * 8 }

// LineRatePPS returns the packet rate that saturates bps for frames of the
// given length.
func LineRatePPS(bps float64, frameLen int) float64 { return bps / WireBits(frameLen) }
