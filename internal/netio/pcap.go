package netio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nba/internal/simtime"
)

// Pcap support: transmitted traffic can be captured and written in the
// classic libpcap file format, so simulated packet streams are inspectable
// with standard tools (tcpdump -r, Wireshark).

const (
	pcapMagic      = 0xa1b2c3d4
	pcapVersionMaj = 2
	pcapVersionMin = 4
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet = 1
)

// CapturedPacket is one captured frame with its virtual timestamp and the
// NIC port it left on (which a pcap file does not carry).
type CapturedPacket struct {
	Time simtime.Time
	Data []byte
	Port int
}

// WritePcap writes frames in libpcap format.
func WritePcap(w io.Writer, pkts []CapturedPacket) error {
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMaj)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMin)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:20], 65535) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [16]byte
	for _, p := range pkts {
		usec := uint64(p.Time / simtime.Microsecond)
		binary.LittleEndian.PutUint32(rec[0:4], uint32(usec/1e6))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(usec%1e6))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(p.Data)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(p.Data)))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if _, err := bw.Write(p.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPcap parses a libpcap file written by WritePcap (little-endian,
// Ethernet link type). It exists for tests and tooling round-trips.
func ReadPcap(r io.Reader) ([]CapturedPacket, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("netio: pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != pcapMagic {
		return nil, fmt.Errorf("netio: not a little-endian pcap file")
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("netio: unsupported link type %d", lt)
	}
	var pkts []CapturedPacket
	var rec [16]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return pkts, nil
			}
			return nil, fmt.Errorf("netio: pcap record header: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:4])
		usec := binary.LittleEndian.Uint32(rec[4:8])
		caplen := binary.LittleEndian.Uint32(rec[8:12])
		if caplen > 1<<20 {
			return nil, fmt.Errorf("netio: implausible capture length %d", caplen)
		}
		data := make([]byte, caplen)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, fmt.Errorf("netio: pcap record body: %w", err)
		}
		pkts = append(pkts, CapturedPacket{
			Time: simtime.Time(sec)*simtime.Second + simtime.Time(usec)*simtime.Microsecond,
			Data: data,
		})
	}
}
