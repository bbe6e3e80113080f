package sysinfo

import (
	"math"
	"strings"
	"testing"

	"nba/internal/simtime"
)

func TestDefaultTopologyMatchesTable3(t *testing.T) {
	top := DefaultTopology()
	if err := top.Validate(); err != nil {
		t.Fatalf("default topology invalid: %v", err)
	}
	if top.Sockets != 2 || top.CoresPerSocket != 8 {
		t.Errorf("got %d sockets x %d cores, want 2x8", top.Sockets, top.CoresPerSocket)
	}
	if len(top.Ports) != 8 {
		t.Errorf("got %d ports, want 8", len(top.Ports))
	}
	if len(top.Devices) != 2 {
		t.Errorf("got %d devices, want 2", len(top.Devices))
	}
	var total float64
	for _, p := range top.Ports {
		total += p.LineRateBps
	}
	if total != 80e9 {
		t.Errorf("aggregate line rate = %g, want 80e9", total)
	}
	if got := top.MaxWorkersPerSocket(); got != 7 {
		t.Errorf("MaxWorkersPerSocket = %d, want 7 (one core reserved for device thread)", got)
	}
}

func TestPortAndDeviceLocality(t *testing.T) {
	top := DefaultTopology()
	if got := top.PortsOnSocket(0); len(got) != 4 {
		t.Errorf("socket 0 ports = %v, want 4 ports", got)
	}
	if got := top.PortsOnSocket(1); len(got) != 4 {
		t.Errorf("socket 1 ports = %v, want 4 ports", got)
	}
	for s := 0; s < 2; s++ {
		if got, ok := top.DeviceOnSocket(s); !ok || top.Devices[got].Socket != s {
			t.Errorf("socket %d device = %d, %v; want its own", s, got, ok)
		}
	}
}

func TestTopologyValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
		want []string // substrings the error must contain
	}{
		{"no sockets", func(t *Topology) { t.Sockets = 0 }, nil},
		{"one core", func(t *Topology) { t.CoresPerSocket = 1 }, nil},
		{"zero freq", func(t *Topology) { t.CoreFreqHz = 0 }, nil},
		{"no ports", func(t *Topology) { t.Ports = nil }, nil},
		{"port bad socket", func(t *Topology) { t.Ports[0].Socket = 9 }, nil},
		{"port zero rate", func(t *Topology) { t.Ports[0].LineRateBps = 0 }, nil},
		{"device bad socket", func(t *Topology) { t.Devices[0].Socket = -1 }, nil},
		{"two devices on a socket", func(t *Topology) {
			t.Devices = append(t.Devices, Device{Kind: DevicePhi, Name: "phi1", Socket: 1})
		}, []string{"gpu1", "phi1", "socket 1"}},
		{"zero rxq", func(t *Topology) { t.RxQueueCapacity = 0 }, nil},
	}
	for _, c := range cases {
		top := DefaultTopology()
		c.mut(top)
		err := top.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid topology", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", c.name, err, w)
			}
		}
	}
}

func TestWireMath(t *testing.T) {
	// A 64 B frame occupies 84 B on the wire; 10 GbE carries 14.88 Mpps.
	pps := LineRatePPS(10e9, 64)
	if math.Abs(pps-14_880_952.38) > 1 {
		t.Errorf("64B line rate = %v pps, want ~14.88M", pps)
	}
	if WireBits(64) != 672 {
		t.Errorf("WireBits(64) = %v, want 672", WireBits(64))
	}
	// 1500 B frames: 822 kpps.
	pps = LineRatePPS(10e9, 1500)
	if math.Abs(pps-822_368.4) > 1 {
		t.Errorf("1500B line rate = %v pps, want ~822k", pps)
	}
}

func TestElementCost(t *testing.T) {
	c := ElementCost{Fixed: 100, PerByte: 2.5}
	if got := c.Cycles(64); got != 260 {
		t.Errorf("Cycles(64) = %d, want 260", got)
	}
	if got := c.Cycles(0); got != 100 {
		t.Errorf("Cycles(0) = %d, want 100", got)
	}
}

func TestKernelCost(t *testing.T) {
	k := KernelCost{
		Launch:    10 * simtime.Microsecond,
		PerPacket: 50 * simtime.Nanosecond,
		PerByte:   1000, // 1 ns per byte in ps
	}
	// 100 packets, 6400 bytes: 10us + 5us + 6.4us = 21.4us
	if got := k.Duration(100, 6400); got != 21400*simtime.Nanosecond {
		t.Errorf("Duration = %v, want 21.4us", got)
	}
}

func TestDefaultCostModelValid(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatalf("default cost model invalid: %v", err)
	}
	// Every sample-app element must have an explicit cost entry.
	for _, class := range []string{
		"L2Forward", "CheckIPHeader", "IPLookup", "DecIPTTL",
		"CheckIP6Header", "LookupIP6Route", "DecIP6HLIM",
		"IPsecESPencap", "IPsecAES", "IPsecHMAC",
		"IDSMatchAC", "IDSMatchRE", "NoOp",
	} {
		if _, ok := m.Elements[class]; !ok {
			t.Errorf("no element cost for %q", class)
		}
	}
	// Every offloadable class must have a kernel.
	for _, class := range []string{
		"IPLookup", "LookupIP6Route", "IPsecAES", "IPsecHMAC", "IDSMatchAC", "IDSMatchRE",
	} {
		if _, ok := m.Kernels[class]; !ok {
			t.Errorf("no kernel cost for %q", class)
		}
	}
}

func TestCostModelValidateRejectsBadModels(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CostModel)
		want string // in the error
	}{
		{"zero aggregate", func(m *CostModel) { m.MaxAggBatches = 0 }, "MaxAggBatches"},
		{"zero task cap", func(m *CostModel) { m.MaxInflightTasks = 0 }, "MaxInflightTasks"},
		{"negative task cap", func(m *CostModel) { m.MaxInflightTasks = -1 }, "MaxInflightTasks"},
		{"zero idle poll", func(m *CostModel) { m.IdlePoll = 0 }, "IdlePoll"},
		{"zero copy bandwidth", func(m *CostModel) {
			m.Devices[DevicePhi] = DeviceParams{KernelScale: 1}
		}, "copy bandwidth"},
	}
	for _, c := range cases {
		m := Default()
		c.mut(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

func TestCostModelFallbacks(t *testing.T) {
	m := Default()
	if got := m.ElementCostOf("NoSuchElement"); got != m.DefaultElementCost {
		t.Errorf("unknown element cost = %+v, want default", got)
	}
	k := m.KernelCostOf("NoSuchKernel")
	if k.Launch <= 0 || k.PerPacket <= 0 {
		t.Errorf("fallback kernel not sane: %+v", k)
	}
	if _, err := m.DeviceParamsOf(DeviceGPU); err != nil {
		t.Errorf("no GPU params: %v", err)
	}
	if _, err := m.DeviceParamsOf(DeviceKind(99)); err == nil {
		t.Error("DeviceParamsOf accepted unknown kind")
	}
}

func TestIPsecKernelMatchesPaperProfile(t *testing.T) {
	// Paper §4.6: the profiled IPsec GPU kernel takes ~140 us for an
	// aggregated task (100 us HMAC-SHA1 + 40 us AES-128CTR). Our combined
	// kernel time for a 2048-packet task must land near that.
	m := Default()
	// A 64 B frame becomes a 122 B ESP frame; each kernel touches the
	// 108-byte post-Ethernet region.
	bytes := 2048 * 108
	aes := m.KernelCostOf("IPsecAES").Duration(2048, bytes)
	hmac := m.KernelCostOf("IPsecHMAC").Duration(2048, bytes)
	total := (aes + hmac).Micros()
	if total < 120 || total > 220 {
		t.Errorf("IPsec kernel for 2048-pkt 64B task = %.1f us, want ~140-190 us", total)
	}
}

func TestDeviceKindString(t *testing.T) {
	if DeviceGPU.String() != "gpu" || DevicePhi.String() != "phi" {
		t.Error("DeviceKind strings wrong")
	}
	if DeviceKind(42).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}
