package ipsec

import (
	"fmt"
	"strconv"
	"strings"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
)

func init() {
	element.Register("IPsecESPencap", func() element.Element { return &ESPEncap{} })
	element.Register("IPsecAES", func() element.Element { return &Stage{class: "IPsecAES"} })
	element.Register("IPsecHMAC", func() element.Element { return &Stage{class: "IPsecHMAC", mac: true} })
	element.Register("IPsecESPdecap", func() element.Element { return &ESPDecap{} })
}

// sadbFor fetches (or builds) the socket-shared SADB.
func sadbFor(ctx *element.ConfigContext, args []string) (*SADB, error) {
	sas := 1024
	seed := uint64(99)
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "sas="):
			v, err := strconv.Atoi(strings.TrimPrefix(a, "sas="))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("bad sas %q", a)
			}
			sas = v
		case strings.HasPrefix(a, "seed="):
			v, err := strconv.ParseUint(strings.TrimPrefix(a, "seed="), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seed %q", a)
			}
			seed = v
		default:
			return nil, fmt.Errorf("unknown parameter %q", a)
		}
	}
	key := fmt.Sprintf("ipsec.sadb.%d.%d", sas, seed)
	return element.GetOrCreate(ctx.NodeLocal, key, func() (*SADB, error) { return NewSADB(sas, seed) })
}

// ESPEncap encapsulates packets into ESP tunnel mode and picks the output
// port from the SA index. Parameters: "sas=N", "seed=S".
type ESPEncap struct {
	db       *SADB
	numPorts int
}

// Class implements element.Element.
func (*ESPEncap) Class() string { return "IPsecESPencap" }

// OutPorts implements element.Element.
func (*ESPEncap) OutPorts() int { return 1 }

// Configure implements element.Element.
func (e *ESPEncap) Configure(ctx *element.ConfigContext, args []string) error {
	db, err := sadbFor(ctx, args)
	if err != nil {
		return fmt.Errorf("IPsecESPencap: %w", err)
	}
	e.db = db
	e.numPorts = ctx.NumPorts
	return nil
}

// Process implements element.Element.
func (e *ESPEncap) Process(ctx *element.ProcContext, pkt *packet.Packet) int {
	idx, err := Encap(pkt, e.db)
	if err != nil {
		return element.Drop
	}
	pkt.Anno[packet.AnnoOutPort] = uint64(idx % e.numPorts)
	return 0
}

// Stage is the gateway's offloadable per-packet crypto stage. IPsecAES
// (AES-128-CTR encryption) and IPsecHMAC (HMAC-SHA1 authentication) are this
// one element; mac says which of the two it does to a frame.
type Stage struct {
	class string
	mac   bool
	db    *SADB
}

// Class implements element.Element.
func (e *Stage) Class() string { return e.class }

// OutPorts implements element.Element.
func (*Stage) OutPorts() int { return 1 }

// Configure implements element.Element.
func (e *Stage) Configure(ctx *element.ConfigContext, args []string) error {
	db, err := sadbFor(ctx, args)
	if err != nil {
		return fmt.Errorf("%s: %w", e.class, err)
	}
	e.db = db
	return nil
}

// Datablocks implements element.Offloadable. Both stages name the
// "ipsec.frame" whole-packet datablock, so a chained offload copies the
// frame to the device once and back once (the paper's datablock reuse).
func (*Stage) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "ipsec.frame", Kind: element.WholePacket,
			Offset: packet.EthHdrLen, H2D: true, D2H: true},
	}
}

// Kernel implements element.Offloadable: the stage's operation over every
// live packet, each checked once; a frame that is not an ESP frame of this
// SADB is dropped. It writes only the frames and the SADB's scratch of
// ctx.Scratch.
//
//nba:hotpath
func (e *Stage) Kernel(ctx *element.ProcContext, b *batch.Batch) {
	db, mac := e.db, e.mac
	sc := &db.scratch[ctx.Scratch]
	for i, n := 0, b.Count(); i < n; i++ {
		if b.IsMasked(i) {
			continue
		}
		pkt := b.Packet(i)
		sa, end, err := db.sendSA(pkt)
		if err != nil {
			b.SetResult(i, batch.ResultDrop)
			continue
		}
		if mac {
			sc.sign(sa, pkt.Buf(), end)
		} else {
			sc.crypt(sa, pkt.Buf(), end)
		}
	}
}

// ESPDecap verifies, decrypts and decapsulates ESP frames (the reverse
// gateway direction). It enforces the RFC 4303 anti-replay window per
// security association; with RSS a flow always lands on the same worker,
// so per-replica windows are correct.
type ESPDecap struct {
	db      *SADB
	windows []ReplayWindow // by SA index
}

// Class implements element.Element.
func (*ESPDecap) Class() string { return "IPsecESPdecap" }

// OutPorts implements element.Element.
func (*ESPDecap) OutPorts() int { return 1 }

// Configure implements element.Element.
func (e *ESPDecap) Configure(ctx *element.ConfigContext, args []string) error {
	db, err := sadbFor(ctx, args)
	if err != nil {
		return fmt.Errorf("IPsecESPdecap: %w", err)
	}
	e.db = db
	e.windows = make([]ReplayWindow, len(db.SAs))
	return nil
}

// Process implements element.Element. The SA is the one the frame's SPI
// names: a received frame is only bytes, whatever annotations it carries.
func (e *ESPDecap) Process(ctx *element.ProcContext, pkt *packet.Packet) int {
	idx, sa, end, err := e.db.recvSA(pkt)
	if err != nil {
		return element.Drop // not ESP, or an SPI this gateway does not hold
	}
	buf := pkt.Buf()
	sc := &e.db.scratch[ctx.Scratch]
	if !sc.verify(sa, buf, end) {
		return element.Drop
	}
	if !e.windows[idx].Check(SeqOf(buf)) {
		return element.Drop // replayed or stale sequence number
	}
	sc.crypt(sa, buf, end)
	if Decap(pkt) != nil {
		return element.Drop
	}
	return 0
}
