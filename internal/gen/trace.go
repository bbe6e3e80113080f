package gen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nba/internal/packet"
	"nba/internal/rng"
)

// TraceRecord is one packet of a recorded trace.
type TraceRecord struct {
	FrameLen uint16
	Src, Dst uint32
	SPort    uint16
	DPort    uint16
}

// Trace replays a recorded packet sequence (the stand-in for feeding a
// pcap of the CAIDA dataset to the packet generators). Replay loops over
// the records. Like every generator it is read-only once built; NewTrace
// and ReadTrace compute the mean frame length once, and a Trace written as
// a literal recomputes it on every MeanFrameLen.
type Trace struct {
	Records []TraceRecord
	Seed    uint64

	mean float64 // 0: not precomputed
}

// NewTrace returns a Trace over records with its mean frame length computed.
func NewTrace(records []TraceRecord, seed uint64) *Trace {
	return &Trace{Records: records, Seed: seed, mean: meanFrameLen(records)}
}

func meanFrameLen(records []TraceRecord) float64 {
	if len(records) == 0 {
		return 0
	}
	var sum float64
	for _, r := range records {
		sum += float64(r.FrameLen)
	}
	return sum / float64(len(records))
}

// traceMagic identifies the trace file format.
const traceMagic = 0x4E424154 // "NBAT"

// WriteTrace serialises records to w in the nbatrace binary format.
func WriteTrace(w io.Writer, records []TraceRecord) error {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(records)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [14]byte
	for _, r := range records {
		binary.LittleEndian.PutUint16(rec[0:2], r.FrameLen)
		binary.LittleEndian.PutUint32(rec[2:6], r.Src)
		binary.LittleEndian.PutUint32(rec[6:10], r.Dst)
		binary.LittleEndian.PutUint16(rec[10:12], r.SPort)
		binary.LittleEndian.PutUint16(rec[12:14], r.DPort)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace file.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("gen: reading trace header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != traceMagic {
		return nil, fmt.Errorf("gen: not a trace file (bad magic)")
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	records := make([]TraceRecord, 0, n)
	var rec [14]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("gen: trace truncated at record %d: %w", i, err)
		}
		records = append(records, TraceRecord{
			FrameLen: binary.LittleEndian.Uint16(rec[0:2]),
			Src:      binary.LittleEndian.Uint32(rec[2:6]),
			Dst:      binary.LittleEndian.Uint32(rec[6:10]),
			SPort:    binary.LittleEndian.Uint16(rec[10:12]),
			DPort:    binary.LittleEndian.Uint16(rec[12:14]),
		})
	}
	return NewTrace(records, 0), nil
}

// MeanFrameLen implements netio.Generator. It never writes t: queues of
// concurrent runs may share one Trace.
func (t *Trace) MeanFrameLen() float64 {
	if t.mean != 0 {
		return t.mean
	}
	return meanFrameLen(t.Records)
}

// Fill implements netio.Generator by replaying records cyclically.
func (t *Trace) Fill(p *packet.Packet, port int, seq uint64) {
	r, off := t.header(p, port, seq)
	fillOne(p, &r, off, attack{})
}

// FillBurst fills every pkts[i] as Fill(pkts[i], port, pkts[i].Seq) would.
//
//nba:hotpath
func (t *Trace) FillBurst(pkts []*packet.Packet, port int) {
	fillBurst(t, pkts, port, attack{})
}

func (t *Trace) header(p *packet.Packet, port int, seq uint64) (rng.Rand, int) {
	if len(t.Records) == 0 {
		panic("gen: replay of empty trace")
	}
	rec := t.Records[seq%uint64(len(t.Records))]
	n := packet.BuildUDP4(p.Buf(), GenSrcMAC, GenDstMAC, rec.Src, rec.Dst, rec.SPort, rec.DPort, int(rec.FrameLen))
	p.SetLength(n)
	return perPacket(t.Seed, port, seq), udp4Payload
}

// SynthesizeTrace produces a trace with the synthetic-CAIDA mix, for
// cmd/pktgen and tests.
func SynthesizeTrace(n int, seed uint64) []TraceRecord {
	g := &SyntheticCAIDA{Flows: 16384, Seed: seed}
	var p packet.Packet
	records := make([]TraceRecord, n)
	for i := range records {
		g.Fill(&p, 0, uint64(i))
		f := p.Data()
		ip := f[packet.EthHdrLen:]
		u := ip[packet.IPv4HdrLen:]
		records[i] = TraceRecord{
			FrameLen: uint16(p.Length()),
			Src:      packet.IPv4Src(ip),
			Dst:      packet.IPv4Dst(ip),
			SPort:    packet.UDPSrcPort(u),
			DPort:    packet.UDPDstPort(u),
		}
	}
	return records
}
