package ipsec

import "encoding/binary"

// ReplayWindow implements the RFC 4303 anti-replay check: a sliding 64-bit
// window over ESP sequence numbers. The receive side of a security
// association rejects duplicates and packets older than the window.
type ReplayWindow struct {
	highest uint32 // highest sequence number accepted so far
	bitmap  uint64 // bit i set = (highest - i) seen
	started bool
}

// WindowSize is the number of past sequence numbers tracked.
const WindowSize = 64

// Check reports whether seq is acceptable (neither replayed nor too old)
// and, if so, marks it as seen.
func (w *ReplayWindow) Check(seq uint32) bool {
	if seq == 0 {
		// ESP sequence numbers start at 1; zero is never valid.
		return false
	}
	if !w.started {
		w.started = true
		w.highest = seq
		w.bitmap = 1
		return true
	}
	switch {
	case seq > w.highest:
		shift := uint64(seq - w.highest)
		if shift >= WindowSize {
			w.bitmap = 1
		} else {
			w.bitmap = w.bitmap<<shift | 1
		}
		w.highest = seq
		return true
	case w.highest-seq >= WindowSize:
		return false // too old
	default:
		bit := uint64(1) << (w.highest - seq)
		if w.bitmap&bit != 0 {
			return false // replay
		}
		w.bitmap |= bit
		return true
	}
}

// SeqOf extracts the ESP sequence number of an encapsulated frame.
func SeqOf(frame []byte) uint32 {
	return binary.BigEndian.Uint32(frame[ESPOff+4 : ESPOff+8])
}
