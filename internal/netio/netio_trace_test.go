package netio

import (
	"testing"

	"nba/internal/gen"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/trace"
)

func TestPollEmitsRxAndDropEvents(t *testing.T) {
	q, pool := newQueue(1e6, 100) // 1 Mpps into a 100-slot queue
	tr := trace.New(trace.Options{})
	q.Tracer = tr

	// First poll at 1 ms: 1000 arrivals, 900 overflowed, burst of 64 drawn.
	out := q.Poll(simtime.Millisecond, 64, pool, nil)
	if len(out) != 64 {
		t.Fatalf("delivered %d, want 64", len(out))
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want drop+rx", len(evs))
	}
	if evs[0].Kind != trace.KindRxDrop || evs[0].B != 900 {
		t.Fatalf("drop event = %+v, want 900 drops", evs[0])
	}
	if evs[1].Kind != trace.KindRx || evs[1].B != 64 || evs[1].C != 100-64 {
		t.Fatalf("rx event = %+v, want 64 delivered, backlog 36", evs[1])
	}

	// Second poll drains the rest: drops are delta-accounted, so no new drop
	// event unless more overflow happened.
	q.Poll(simtime.Millisecond, 64, pool, out[:0])
	evs = tr.Events()
	last := evs[len(evs)-1]
	if last.Kind != trace.KindRx {
		t.Fatalf("second poll emitted %s, want rx only", last.Kind)
	}
	for _, ev := range evs[2:] {
		if ev.Kind == trace.KindRxDrop {
			t.Fatal("drop event repeated without new drops")
		}
	}
}

// flatGen is a plain Generator that writes nothing, so the queue reaches it
// through the per-packet adapter and AllocsPerRun isolates Poll itself.
type flatGen struct{}

func (flatGen) Fill(p *packet.Packet, port int, seq uint64) { p.SetLength(64) }
func (flatGen) MeanFrameLen() float64                       { return 64 }

// TestPollNoAllocsWithNilTracer gates both materialisation routes: the
// adapter around a plain generator, and a real gen.UDP4 filling the burst
// (its lanes must stay on the stack).
func TestPollNoAllocsWithNilTracer(t *testing.T) {
	for name, g := range map[string]Generator{
		"plain": flatGen{},
		"burst": &gen.UDP4{FrameLen: 128, Flows: 64, Seed: 1},
	} {
		q := NewRxQueue(0, 0, g, 1e9, 1<<20) // plenty of backlog every poll
		pool := NewPacketPool("test", 8192)
		out := make([]*packet.Packet, 0, 64) // reused across polls, as the worker's is
		now := simtime.Microsecond
		warm := q.Poll(now, 64, pool, out)
		for _, p := range warm {
			pool.Put(p)
		}
		allocs := testing.AllocsPerRun(200, func() {
			now += simtime.Microsecond
			got := q.Poll(now, 64, pool, out)
			for _, p := range got {
				pool.Put(p)
			}
		})
		if allocs != 0 {
			t.Errorf("%s generator: Poll with nil tracer allocates %v per call, want 0", name, allocs)
		}
	}
}
