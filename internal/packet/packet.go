// Package packet provides the packet buffer type and wire-format codecs
// (Ethernet, IPv4, IPv6, UDP, ESP) used throughout the framework.
//
// Packets are real byte buffers: elements parse and mutate actual header
// fields, IPsec really encrypts payloads, the IDS really scans them. Only
// the *timing* of those operations is simulated.
package packet

import (
	"fmt"

	"nba/internal/simtime"
)

// MaxFrameLen is the buffer capacity of one packet. It leaves room for the
// IPsec tunnel-mode expansion of a 1500-byte frame (outer IPv4 + ESP header
// + IV + padding + ICV = 1558 bytes) while keeping preallocated packet
// pools compact.
const MaxFrameLen = 1664

// NumAnnos is the number of per-packet annotation slots. The paper restricts
// the commonly used fields to 7 entries so the annotation set fits a cache
// line (§3.2).
const NumAnnos = 7

// Annotation slot assignments. These mirror the uses called out in the
// paper: timestamping, input NIC port, flow IDs for protocol handling, and
// the output-port annotation that replaces multi-edge branches (§3.2).
const (
	AnnoTimestamp   = iota // RX timestamp (virtual time, ps)
	AnnoInPort             // input NIC port index
	AnnoOutPort            // output NIC port chosen by routing elements
	AnnoFlowID             // flow hash for protocol handling / SA selection
	AnnoLBDecision         // load balancer device choice (batch-level mirror)
	AnnoMatchResult        // IDS match verdict
	AnnoUser               // free for applications
)

// Packet is one frame plus metadata. Packets live in per-socket mempools
// and are recycled; they must not be retained after release.
type Packet struct {
	buf    [MaxFrameLen]byte
	length int

	// Arrival is the RX timestamp in virtual time.
	Arrival simtime.Time
	// InPort is the NIC port the packet arrived on.
	InPort int
	// Seq is the packet's sequence number on its RX queue. The queue stamps
	// it before materialising the frame and it is the generator's input: the
	// frame is a function of (seed, port, Seq).
	Seq uint64
	// OrigLen is the frame length at RX time. Throughput is accounted in
	// terms of input traffic processed, so elements that grow frames (ESP
	// encapsulation) do not inflate the numbers.
	OrigLen int
	// Tenant is the index of the tenant app graph this packet belongs to
	// (set at RX from the queue's tenant; 0 in single-tenant runs). It
	// makes every downstream event and drop attributable to a tenant.
	Tenant int32
	// Anno is the per-packet annotation set.
	Anno [NumAnnos]uint64
	// Tainted is the corruption injector's ground-truth mark: set when a
	// DeviceCorrupt fault flips bytes in this frame, cleared on Reset. The
	// invariant oracle uses it to prove corrupted payloads never reach TX
	// while the integrity sentinel is armed; no framework logic may read it
	// to influence behaviour.
	Tainted bool
}

// Reset clears the packet for reuse (mempool.Resetter).
func (p *Packet) Reset() {
	p.length = 0
	p.Arrival = 0
	p.InPort = 0
	p.Seq = 0
	p.OrigLen = 0
	p.Tenant = 0
	p.Anno = [NumAnnos]uint64{}
	p.Tainted = false
}

// Data returns the frame contents.
func (p *Packet) Data() []byte { return p.buf[:p.length] }

// Length returns the frame length in bytes.
func (p *Packet) Length() int { return p.length }

// SetLength resizes the frame within buffer capacity.
func (p *Packet) SetLength(n int) {
	if n < 0 || n > MaxFrameLen {
		panic(fmt.Sprintf("packet: SetLength(%d) out of range [0,%d]", n, MaxFrameLen))
	}
	p.length = n
}

// Buf exposes the full backing buffer (for in-place expansion such as ESP
// encapsulation).
func (p *Packet) Buf() []byte { return p.buf[:] }

// CopyFrom replaces the frame contents.
func (p *Packet) CopyFrom(b []byte) {
	if len(b) > MaxFrameLen {
		panic(fmt.Sprintf("packet: frame of %d bytes exceeds capacity %d", len(b), MaxFrameLen))
	}
	copy(p.buf[:], b)
	p.length = len(b)
}
