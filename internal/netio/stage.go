package netio

import (
	"nba/internal/packet"
	"nba/internal/simtime"
)

// Stage is one RX burst materialised ahead of its poll: the frames of seqs
// [first, first+n) of one queue's port, filled by the queue's generator and
// packed into a byte arena its owner lends to Fill.
//
// A stage's life is arm → fill → poll. Arm (on the goroutine that polls the
// queue) predicts the seqs the next poll delivers and attaches the stage to
// the queue; Fill may then run on any goroutine, since it reads only what
// Arm copied into the stage; Poll, called once the fill has finished or
// can no longer start, consumes the stage. Nothing else reads or writes a
// stage between Arm and the end of its fill.
type Stage struct {
	q     *RxQueue // the queue the stage is armed on, nil when disarmed
	gen   Generator
	epoch uint64 // the queue's generator epoch at Arm
	port  int
	first uint64 // seq of the first frame
	want  int    // frames Arm asked for

	n     int     // frames filled
	arena []byte  // frame i is arena[ends[i-1]:ends[i]], ends[-1] being 0
	ends  []int32 // end offsets of the filled frames
}

// Arm predicts the seqs Poll(t, burst) will deliver and attaches st to q to
// hold their frames, detaching it from any queue it was armed on before.
// It reports whether there is anything to fill; st is unfilled either way.
func (q *RxQueue) Arm(st *Stage, t simtime.Time, burst int) bool {
	st.Disarm()
	first, n := q.Predict(t, burst)
	if n == 0 {
		return false
	}
	*st = Stage{q: q, gen: q.gen, epoch: q.genEpoch, port: q.Port, first: first, want: n}
	q.stage = st
	return true
}

// Disarm detaches st from its queue and forgets its frames.
func (st *Stage) Disarm() {
	if q := st.q; q != nil && q.stage == st {
		q.stage = nil
	}
	st.q, st.n = nil, 0
}

// Armed reports whether st is attached to a queue whose next poll has not
// consumed it yet.
func (st *Stage) Armed() bool { return st.q != nil && st.q.stage == st }

// Fill materialises the armed frames, packed into arena with frame i ending
// at ends[i], filling each into scratch before copying it, in rounds of
// round (> 0) frames. It stops early when arena or ends runs out, or when
// stop, if not nil, says so before a round. It returns how much of arena
// and of ends it used; the stage holds the frames filled.
//
//nba:hotpath
func (st *Stage) Fill(arena []byte, ends []int32, scratch *packet.Packet, round int, stop func() bool) (used, n int) {
	want := min(st.want, len(ends))
fill:
	for n < want && (stop == nil || !stop()) {
		for end := min(n+round, want); n < end; n++ {
			st.gen.Fill(scratch, st.port, st.first+uint64(n))
			frame := scratch.Data()
			if len(frame) > len(arena)-used {
				break fill
			}
			used += copy(arena[used:], frame)
			ends[n] = int32(used)
		}
	}
	st.arena, st.ends, st.n = arena[:used], ends[:n], n
	return used, n
}

// fillStaged materialises one polled burst, pkts, in seq order: the packets
// st holds get their staged frame, the rest are filled by the generator. A
// stage filled from another generator, or for another queue or port, holds
// nothing for this poll.
//
//nba:hotpath
func (q *RxQueue) fillStaged(st *Stage, pkts []*packet.Packet) {
	if st.q != q || st.epoch != q.genEpoch || st.port != q.Port || st.n == 0 {
		q.fill(pkts)
		return
	}
	lo, hi := st.first, st.first+uint64(st.n)
	i := 0
	for i < len(pkts) && pkts[i].Seq < lo {
		i++
	}
	j := i
	for ; j < len(pkts) && pkts[j].Seq < hi; j++ {
		k := pkts[j].Seq - lo
		from := int32(0)
		if k > 0 {
			from = st.ends[k-1]
		}
		pkts[j].CopyFrom(st.arena[from:st.ends[k]])
	}
	q.fill(pkts[:i])
	q.fill(pkts[j:])
}
