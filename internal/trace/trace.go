// Package trace is the deterministic run-trace observability layer: a
// structured event stream recorded from the simulation substrate (engine
// dispatch, per-element batch processing, GPU command-queue phases,
// load-balancer updates, NIC enqueue/drop).
//
// Because the whole framework runs in virtual time, the trace of a run is —
// like every other output — a pure function of the configuration and seed.
// That makes traces diffable: two runs with the same inputs must produce
// byte-identical event streams, and any divergence pinpoints the first event
// where a regression changed behaviour. The golden-trace test suite pins
// digests of canonical runs so `go test` catches silent behaviour shifts.
//
// The tracer is designed for the worker hot path:
//
//   - a nil *Tracer is valid and Emit on it is a two-instruction no-op, so
//     call sites need no conditionals and a disabled tracer adds zero
//     allocations (verified by testing.AllocsPerRun tests);
//   - an enabled tracer writes into a pre-allocated ring and feeds a
//     streaming SHA-256 digest through a reused scratch buffer, so Emit
//     itself never allocates either;
//   - the digest and the periodic checkpoints cover every emitted event,
//     even ones later overwritten in the ring, so digests are independent of
//     the ring capacity.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"nba/internal/simtime"
)

// Kind classifies trace events.
type Kind uint8

const (
	// KindDispatch is one simtime engine event firing. A = engine sequence
	// number of the fired event. A parked worker's skipped IO-loop passes
	// are not events, so they leave no record.
	KindDispatch Kind = iota
	// KindBatch is one element processing one batch. Name = element
	// instance, Actor = worker. A = live packets, B = cycles charged,
	// C = node ID.
	KindBatch
	// KindGPUSubmit is a device task entering the command queue. Name =
	// device, Actor = device index. A = task ID, B = packets, C = device
	// backlog (ps) at submission, D = submitting worker.
	KindGPUSubmit
	// KindGPUCopyH2D is the host-to-device copy phase. At = end of copy.
	// A = task ID, B = bytes, C = copy start (ps), D = submitting worker.
	KindGPUCopyH2D
	// KindGPULaunch is the kernel launch instant. A = task ID, B = kernel
	// launches in the chain, D = submitting worker.
	KindGPULaunch
	// KindGPUKernel is the kernel execution phase. At = end of execution.
	// A = task ID, B = packets, C = kernel start (ps), D = submitting worker.
	KindGPUKernel
	// KindGPUCopyD2H is the device-to-host return copy. At = task finish.
	// A = task ID, B = bytes, C = copy start (ps), D = submitting worker.
	KindGPUCopyD2H
	// KindLBUpdate is one adaptive load-balancer control step. Actor =
	// socket. A = math.Float64bits(W), B = math.Float64bits(smoothed
	// throughput), C = climb direction (+1/-1), D = waiting intervals set.
	KindLBUpdate
	// KindRx is a burst of packets delivered from an RX queue to a worker.
	// Actor = port. A = queue, B = packets delivered, C = backlog after the
	// poll.
	KindRx
	// KindRxDrop accounts RX-queue drops since the previous drop event.
	// Actor = port. A = queue, B = dropped (overflow + alloc), C = of which
	// mempool-exhaustion drops.
	KindRxDrop
	// KindFaultInject is a capacity-removing fault-plan event being applied.
	// A = fault.Kind, B = target (device, or port for RX-queue faults;
	// math.Float64bits(factor) for rate bursts), C = queue (RX-queue faults).
	KindFaultInject
	// KindFaultRecover is a capacity-restoring fault-plan event (device
	// recover, RX queue up). Payload as KindFaultInject.
	KindFaultRecover
	// KindFallback is a worker re-executing an offloaded aggregate on the
	// CPU after a device failure (a stalled device's tasks fail too) or an
	// unplug. Actor = worker. A = task ID (0 when the device never saw the
	// aggregate), B = packets, C = reason (0 = device failed, 3 = socket has
	// no plugged device; 1, an epoch force-rescue, and 2, an admission
	// refusal, are retired), D = 0.
	KindFallback
	// KindOverloadShed is overload control dropping packets. Actor = worker,
	// Name = mechanism ("codel"). A = packets shed, B = reason (0 = CoDel
	// sojourn; 1, an admission rejection, is retired), C = max observed
	// sojourn (ps), D = governor level at the time.
	KindOverloadShed
	// KindOverloadLevel is a governor level transition. Actor = socket,
	// Name = new level. A = new level, B = old level, C = device-saturation
	// flag, D = CPU-saturation flag for the window that fired it.
	KindOverloadLevel
	// KindOverloadBias is the governor ratcheting the ALB weight bounds
	// toward the uncongested processor. Actor = socket. A =
	// math.Float64bits(lo), B = math.Float64bits(hi), C = device-saturation
	// flag, D = CPU-saturation flag.
	KindOverloadBias
	// KindReconfigBegin is a reconfiguration epoch opening: the affected
	// lanes or device quiesce and the drain starts. Name = reconfig event
	// kind. A = epoch number, B = reconfig.Kind, C = target (tenant index
	// for tenant events, device for plug events, port for resizes),
	// D = kind-specific payload (math.Float64bits(share) for retunes,
	// capacity for resizes).
	KindReconfigBegin
	// KindReconfigDrain closes the drain phase of an epoch. Name = reconfig
	// event kind. A = epoch number, B = drain duration (ps), C = 0 (retired:
	// it counted an epoch force-rescue's work), D = 1 when the drain hit the
	// DrainGrace deadline and the epoch committed orphaned (0 = drained).
	KindReconfigDrain
	// KindReconfigCommit is the epoch's handoff completing: shares
	// re-split, queues re-mapped, controllers and governors re-seated, the
	// datapath resumed. Name = reconfig event kind. A = epoch number,
	// B = reconfig.Kind, C = target (as KindReconfigBegin), D = lanes
	// re-seated (tenant events) or controllers re-seated (plug events) or
	// rings resized (resize events).
	KindReconfigCommit
	// KindIntegrityCheck is the sentinel re-executing a sampled offloaded
	// aggregate on the CPU and comparing digests. Actor = worker, Name =
	// device. A = task ID, B = packets compared, C = 1 on mismatch (0 =
	// digests agreed), D = device index.
	KindIntegrityCheck
	// KindIntegrityMismatch is a sentinel digest mismatch: the device's
	// result disagrees with the host re-execution. Actor = worker, Name =
	// device. A = task ID, B = packets in the aggregate, C =
	// math.Float64bits(device corruption score after the bump), D = device
	// index.
	KindIntegrityMismatch
	// KindIntegrityQuarantine is a mismatched aggregate being quarantined:
	// its packets are counted in QuarantinedPackets and never transmitted.
	// Actor = worker, Name = device. A = task ID, B = packets quarantined,
	// C = 0, D = device index.
	KindIntegrityQuarantine
	// KindIntegrityDemote is the integrity tracker escalating against a
	// device: ratcheting the ALB weight bounds down (A = 0), fail-stopping
	// the device (A = 1), or re-admitting it after a recovery probe
	// (A = 2). Actor = socket, Name = device. B =
	// math.Float64bits(corruption score), C = consecutive mismatches,
	// D = device index.
	KindIntegrityDemote

	numKinds
)

var kindNames = [numKinds]string{
	"dispatch",
	"batch",
	"gpu.submit",
	"gpu.copy_h2d",
	"gpu.launch",
	"gpu.kernel",
	"gpu.copy_d2h",
	"lb.update",
	"rx",
	"rx.drop",
	"fault.inject",
	"fault.recover",
	"fallback",
	"overload.shed",
	"overload.level",
	"overload.bias",
	"reconfig.begin",
	"reconfig.drain",
	"reconfig.commit",
	"integrity.check",
	"integrity.mismatch",
	"integrity.quarantine",
	"integrity.demote",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString resolves a kind name as written by the JSONL exporter. The
// second result reports whether the name is known.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// MaskAll enables every event kind.
const MaskAll uint64 = 1<<numKinds - 1

// MaskOf builds an event mask from kinds.
func MaskOf(kinds ...Kind) uint64 {
	var m uint64
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Event is one trace record. Payload slots A-D are kind-specific (see the
// Kind constants); they hold counts, byte volumes, picosecond durations or
// math.Float64bits-encoded fractions, all of which are exact integers so the
// stream digests and diffs bit-stably.
type Event struct {
	// Seq is the absolute event index in emission order, starting at 0. It
	// keeps its value even after older events fall out of the ring.
	Seq uint64
	// At is the virtual timestamp. Events are emitted in deterministic
	// order but At is not globally monotone: device-phase events carry
	// their scheduled completion times.
	At    simtime.Time
	Kind  Kind
	Actor int32
	// Tenant attributes the event to a tenant app graph (index into the
	// run's tenant set), or is NoTenant for substrate events (dispatch,
	// device phases, fault injections) that no single tenant owns. The
	// tenant is ring/export metadata only: it is deliberately NOT part of
	// the canonical digest encoding, so arming tenancy cannot move the
	// golden digests.
	Tenant int32
	Name   string
	A      int64
	B      int64
	C      int64
	D      int64
}

// NoTenant marks an event as unattributed to any tenant.
const NoTenant int32 = -1

// Checkpoint is a running-digest snapshot taken every CheckpointInterval
// events. Comparing checkpoint chains of two runs brackets the first
// diverging event without storing either full stream.
type Checkpoint struct {
	// Seq is the number of events covered by Digest (the next event would
	// have Seq == this value).
	Seq uint64
	// At is the timestamp of the last covered event.
	At simtime.Time
	// Digest is the running digest over events [0, Seq).
	Digest string
}

// Options configures a Tracer.
type Options struct {
	// Capacity is the number of events retained in the ring (default 65536).
	// The digest and checkpoints always cover all events regardless.
	Capacity int
	// Mask selects the recorded kinds; zero means all.
	Mask uint64
	// CheckpointInterval is the event spacing of digest checkpoints
	// (default 1024; negative disables checkpoints).
	CheckpointInterval int
}

// Tracer records structured events. The zero value is not usable; create
// with New. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	mask       uint64
	ring       []Event
	total      uint64
	dropped    uint64
	hash       hash.Hash
	scratch    []byte
	cpInterval uint64
	cps        []Checkpoint
	// tenantHash, when armed, accumulates the same canonical encoding as
	// the global digest but restricted to one tenant's events, giving each
	// tenant a replay-stable sub-digest even with co-tenants present.
	tenantHash []hash.Hash
	// tenantFinal holds the frozen digest of a sealed tenant ("" while the
	// tenant is live). Sealing happens at evict commit: the sub-digest
	// stops accumulating and TenantDigest keeps returning the final value.
	tenantFinal []string
}

// New creates a tracer.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 1 << 16
	}
	if opts.Mask == 0 {
		opts.Mask = MaskAll
	}
	interval := uint64(1024)
	switch {
	case opts.CheckpointInterval > 0:
		interval = uint64(opts.CheckpointInterval)
	case opts.CheckpointInterval < 0:
		interval = 0
	}
	return &Tracer{
		mask:       opts.Mask,
		ring:       make([]Event, opts.Capacity),
		hash:       sha256.New(),
		scratch:    make([]byte, 0, 128),
		cpInterval: interval,
	}
}

// Emit records one event unattributed to any tenant. It is safe (and a cheap
// no-op) on a nil tracer or a masked-out kind, and never allocates on the
// steady-state path.
//
//nba:hotpath
func (t *Tracer) Emit(at simtime.Time, k Kind, actor int32, name string, a, b, c, d int64) {
	t.EmitT(at, k, actor, NoTenant, name, a, b, c, d)
}

// EmitT records one event attributed to a tenant. The tenant index feeds the
// ring and, when per-tenant digests are armed, that tenant's sub-digest; the
// global digest encoding is unchanged, so a tenant-attributed event hashes
// identically to an unattributed one.
//
//nba:hotpath
func (t *Tracer) EmitT(at simtime.Time, k Kind, actor, tenant int32, name string, a, b, c, d int64) {
	if t == nil || t.mask&(1<<k) == 0 {
		return
	}
	idx := int(t.total % uint64(len(t.ring)))
	if t.total >= uint64(len(t.ring)) {
		t.dropped++
	}
	t.ring[idx] = Event{Seq: t.total, At: at, Kind: k, Actor: actor, Tenant: tenant, Name: name, A: a, B: b, C: c, D: d}
	t.total++

	// Streaming digest over the canonical little-endian encoding.
	buf := t.scratch[:0]
	buf = binary.LittleEndian.AppendUint64(buf, uint64(at))
	buf = append(buf, byte(k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(actor))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	t.scratch = buf[:0]
	t.hash.Write(buf)
	if tenant >= 0 && int(tenant) < len(t.tenantHash) && t.tenantFinal[tenant] == "" {
		t.tenantHash[tenant].Write(buf)
	}

	if t.cpInterval > 0 && t.total%t.cpInterval == 0 {
		t.cps = append(t.cps, Checkpoint{Seq: t.total, At: at, Digest: t.digestHex()}) //nbalint:allow hotalloc checkpoint append is amortised over cpInterval (>=1024) events
	}
}

// EnsureTenantDigests grows the per-tenant sub-digest set to n slots,
// opening a fresh sub-digest for each new slot (a tenant entering service,
// at construction or by admission). Events emitted via EmitT with tenant in
// [0, n) additionally feed that tenant's digest; the global digest is
// unaffected. Existing slots — their accumulated state and any seals — are
// untouched. A no-op when n slots already exist; safe on a nil tracer.
func (t *Tracer) EnsureTenantDigests(n int) {
	if t == nil {
		return
	}
	for len(t.tenantHash) < n {
		t.tenantHash = append(t.tenantHash, sha256.New())
		t.tenantFinal = append(t.tenantFinal, "")
	}
}

// SealTenantDigest freezes tenant i's sub-digest (evicted-tenant handoff):
// later events attributed to i no longer accumulate, and TenantDigest keeps
// returning the value at seal time. Returns the sealed digest, or "" when
// per-tenant digests are not armed or i is out of range. Sealing twice is
// idempotent.
func (t *Tracer) SealTenantDigest(i int) string {
	if t == nil || i < 0 || i >= len(t.tenantHash) {
		return ""
	}
	if t.tenantFinal[i] == "" {
		t.tenantFinal[i] = "sha256:" + hex.EncodeToString(t.tenantHash[i].Sum(nil))
	}
	return t.tenantFinal[i]
}

// TenantDigest returns tenant i's sub-digest in the form "sha256:<hex>" —
// the live running value, or the frozen one once sealed — or "" when
// per-tenant digests are not armed or i is out of range.
func (t *Tracer) TenantDigest(i int) string {
	if t == nil || i < 0 || i >= len(t.tenantHash) {
		return ""
	}
	if t.tenantFinal[i] != "" {
		return t.tenantFinal[i]
	}
	return "sha256:" + hex.EncodeToString(t.tenantHash[i].Sum(nil))
}

// Total returns the number of events emitted (including ones no longer in
// the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped returns how many events were overwritten in the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil || t.total == 0 {
		return nil
	}
	n := uint64(len(t.ring))
	if t.total <= n {
		out := make([]Event, t.total)
		copy(out, t.ring[:t.total])
		return out
	}
	start := int(t.total % n)
	out := make([]Event, 0, n)
	out = append(out, t.ring[start:]...)
	out = append(out, t.ring[:start]...)
	return out
}

// Digest returns the streaming digest over every emitted event, in the form
// "sha256:<hex>". Digests are independent of the ring capacity.
func (t *Tracer) Digest() string {
	if t == nil {
		return "sha256:" + hex.EncodeToString(sha256.New().Sum(nil))
	}
	return t.digestHex()
}

func (t *Tracer) digestHex() string {
	// hash.Hash.Sum does not consume the running state, so the digest can
	// be snapshotted at any point (checkpoints rely on this).
	return "sha256:" + hex.EncodeToString(t.hash.Sum(nil))
}

// Checkpoints returns the digest checkpoints taken so far.
func (t *Tracer) Checkpoints() []Checkpoint {
	if t == nil {
		return nil
	}
	return append([]Checkpoint(nil), t.cps...)
}
