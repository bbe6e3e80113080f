package netio

import (
	"bytes"
	"testing"

	"nba/internal/gen"
	"nba/internal/packet"
	"nba/internal/simtime"
)

// TestPredictMatchesPoll: Predict(t, b) names exactly the seqs Poll(t, b)
// then delivers, and leaves every counter and the high watermark alone,
// on saturated, unsaturated, down, stopped and re-rated queues.
func TestPredictMatchesPoll(t *testing.T) {
	us := simtime.Microsecond
	type step struct {
		at     simtime.Time
		burst  int
		before func(q *RxQueue) // a control-plane change before the step
	}
	cases := []struct {
		name     string
		rate     float64
		capacity int
		steps    []step
	}{
		{"saturated", 5e6, 128, []step{{10 * us, 64, nil}, {60 * us, 64, nil}, {61 * us, 64, nil}, {200 * us, 32, nil}}},
		{"unsaturated", 1e5, 4096, []step{{10 * us, 64, nil}, {500 * us, 64, nil}, {501 * us, 64, nil}, {2000 * us, 1, nil}}},
		{"down", 5e6, 128, []step{
			{10 * us, 64, nil},
			{100 * us, 64, func(q *RxQueue) { q.SetDown(true) }},
			{300 * us, 64, nil},
			{310 * us, 64, func(q *RxQueue) { q.SetDown(false) }},
		}},
		{"stopped", 2e6, 4096, []step{
			{10 * us, 64, func(q *RxQueue) { q.SetStop(20 * us) }},
			{100 * us, 64, nil}, {101 * us, 64, nil}, {102 * us, 64, nil},
		}},
		{"re-rated", 1e6, 512, []step{
			{50 * us, 64, nil},
			{80 * us, 64, func(q *RxQueue) { q.SetRate(60*us, 2e7) }},
			{120 * us, 256, func(q *RxQueue) { q.SetCapacity(100*us, 64) }},
			{150 * us, 64, func(q *RxQueue) { q.SetCapacity(150*us, 1024) }},
			{400 * us, 64, func(q *RxQueue) { q.SetRate(300*us, 0) }},
			{401 * us, 64, nil},
		}},
		{"burst 0", 1e6, 512, []step{{50 * us, 0, nil}, {60 * us, 64, nil}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, pool := newQueue(tc.rate, tc.capacity)
			for i, s := range tc.steps {
				if s.before != nil {
					s.before(q)
				}
				d0, dr0, af0 := q.Stats()
				hwm0 := q.HighWatermark()
				first, n := q.Predict(s.at, s.burst)
				if d, dr, af := q.Stats(); d != d0 || dr != dr0 || af != af0 || q.HighWatermark() != hwm0 {
					t.Fatalf("step %d: Predict moved the counters: (%d %d %d %d) → (%d %d %d %d)",
						i, d0, dr0, af0, hwm0, d, dr, af, q.HighWatermark())
				}
				out := q.Poll(s.at, s.burst, pool, nil)
				if len(out) != n {
					t.Fatalf("step %d: Predict said %d packets, Poll delivered %d", i, n, len(out))
				}
				for k, p := range out {
					if p.Seq != first+uint64(k) {
						t.Fatalf("step %d: packet %d has seq %d, Predict said %d", i, k, p.Seq, first+uint64(k))
					}
					pool.Put(p)
				}
				if tc.name == "down" && q.Down() && n != 0 {
					t.Fatalf("step %d: a down queue predicted %d packets", i, n)
				}
			}
		})
	}
}

// fillRound is the number of frames Fill fills between checks of its stop.
const fillRound = 5

// stagedCase is one history of TestStagedPollMatchesFill: the poll burst
// and time, the arena the stage may fill, the pool size, and a change made
// between arming (at armAt) and polling.
type stagedCase struct {
	name         string
	armAt, at    simtime.Time
	burst        int
	arena        int // bytes; the frames table is always large enough
	rounds       int // rounds of fillRound frames Fill may fill before it is stopped; 0: all
	pool         int
	afterArm     func(plain, staged *RxQueue, st *Stage)
	wantStaged   bool // some packet must come from the stage
	wantUnstaged bool // some packet must not
}

// TestStagedPollMatchesFill: a poll served from a stage filled on this
// goroutine delivers the same bytes, lengths and metadata as a poll of an
// identical queue without one — with the stage covering the whole burst,
// part of it (arena full, or the fill stopped part-way), seqs shifted by
// pool exhaustion or a later or earlier poll, after a generator swap, and
// for a stage armed on another port's queue.
func TestStagedPollMatchesFill(t *testing.T) {
	us := simtime.Microsecond
	gens := map[string]Generator{
		"UDP4 attack": &gen.UDP4{FrameLen: 200, Flows: 64, Seed: 5, AttackFrac: 0.5, AttackPattern: []byte("/etc/passwd")},
		"UDP6":        &gen.UDP6{FrameLen: 96, Flows: 64, Seed: 6},
		"CAIDA":       &gen.SyntheticCAIDA{Flows: 512, Seed: 7},
	}
	other := &gen.UDP4{FrameLen: 128, Flows: 8, Seed: 99}
	cases := []stagedCase{
		{name: "full", armAt: 40 * us, at: 40 * us, burst: 64, arena: 1 << 20, pool: 4096,
			wantStaged: true},
		{name: "arena full", armAt: 40 * us, at: 40 * us, burst: 64, arena: 2000, pool: 4096,
			wantStaged: true, wantUnstaged: true},
		{name: "stopped part-way", armAt: 40 * us, at: 40 * us, burst: 64, arena: 1 << 20, pool: 4096,
			rounds: 3, wantStaged: true, wantUnstaged: true},
		{name: "pool exhaustion", armAt: 40 * us, at: 40 * us, burst: 64, arena: 1 << 20, pool: 20,
			wantStaged: true},
		// By 75 us the 256-slot ring has head-dropped 28 of the 64 seqs
		// armed at 40 us: the burst's tail comes from the stage.
		{name: "polled later", armAt: 40 * us, at: 75 * us, burst: 64, arena: 1 << 20, pool: 4096,
			wantStaged: true, wantUnstaged: true},
		// Armed for 75 us, polled at 40 us: the burst's head, seqs the
		// ring would have head-dropped by 75 us, comes before the stage.
		{name: "polled earlier", armAt: 75 * us, at: 40 * us, burst: 64, arena: 1 << 20, pool: 4096,
			wantStaged: true, wantUnstaged: true},
		{name: "generator swapped", armAt: 40 * us, at: 40 * us, burst: 64, arena: 1 << 20, pool: 4096,
			afterArm: func(plain, staged *RxQueue, _ *Stage) {
				plain.SetGenerator(other)
				staged.SetGenerator(other)
			}},
		{name: "another port", armAt: 40 * us, at: 40 * us, burst: 64, arena: 1 << 20, pool: 4096,
			afterArm: func(_, staged *RxQueue, st *Stage) {
				// Arm the stage on port 3's queue, which has the same
				// arrivals, and hand it to this one.
				q3 := NewRxQueue(3, 0, staged.gen, 4e6, 256)
				q3.Arm(st, 40*simtime.Microsecond, 64)
				st.Fill(make([]byte, 1<<20), make([]int32, 256), new(packet.Packet), 16, nil)
				staged.stage = st
			}},
	}
	for gname, g := range gens {
		for _, tc := range cases {
			t.Run(gname+"/"+tc.name, func(t *testing.T) {
				plain := NewRxQueue(1, 0, g, 4e6, 256)
				staged := NewRxQueue(1, 0, g, 4e6, 256)
				plainPool, stagedPool := NewPacketPool("plain", tc.pool), NewPacketPool("staged", tc.pool)
				// One earlier poll, so the stage does not start at seq 0.
				for _, p := range plain.Poll(10*us, 16, plainPool, nil) {
					plainPool.Put(p)
				}
				for _, p := range staged.Poll(10*us, 16, stagedPool, nil) {
					stagedPool.Put(p)
				}
				var st Stage
				if !staged.Arm(&st, tc.armAt, tc.burst) {
					t.Fatal("nothing to stage")
				}
				var stop func() bool
				if tc.rounds > 0 {
					stop = stopAfter(tc.rounds)
				}
				st.Fill(make([]byte, tc.arena), make([]int32, tc.burst), new(packet.Packet), fillRound, stop)
				if tc.rounds > 0 && st.n != tc.rounds*fillRound {
					t.Fatalf("%d rounds of %d filled %d frames", tc.rounds, fillRound, st.n)
				}
				if tc.afterArm != nil {
					tc.afterArm(plain, staged, &st)
				}
				lo, hi := st.first, st.first+uint64(st.n)
				usable := st.q == staged && st.epoch == staged.genEpoch
				want := plain.Poll(tc.at, tc.burst, plainPool, nil)
				got := staged.Poll(tc.at, tc.burst, stagedPool, nil)
				if staged.stage != nil {
					t.Error("Poll left the stage armed")
				}
				if len(got) != len(want) || len(got) == 0 {
					t.Fatalf("%d packets with a stage, %d without", len(got), len(want))
				}
				fromStage := 0
				for i := range want {
					w, g := want[i], got[i]
					if g.Seq != w.Seq || g.Length() != w.Length() || g.OrigLen != w.OrigLen ||
						g.Arrival != w.Arrival || g.Anno != w.Anno || !bytes.Equal(g.Data(), w.Data()) {
						t.Fatalf("packet %d (seq %d) differs from the unstaged poll (seq %d)", i, g.Seq, w.Seq)
					}
					if usable && g.Seq >= lo && g.Seq < hi {
						fromStage++
					}
				}
				if tc.wantStaged && fromStage == 0 {
					t.Errorf("no packet came from the stage (%d staged of seqs [%d,%d))", st.n, lo, hi)
				}
				if tc.wantUnstaged && fromStage == len(got) {
					t.Errorf("every packet came from the stage; the case needs some filled at the poll")
				}
				if !tc.wantStaged && fromStage != 0 {
					t.Errorf("%d packets came from a stage the queue must not use", fromStage)
				}
				if tc.name == "pool exhaustion" {
					if _, _, af := staged.Stats(); af == 0 {
						t.Error("the pool never ran dry")
					}
				}
			})
		}
	}
}

// stopAfter returns a Fill stop that lets n rounds through.
func stopAfter(n int) func() bool {
	return func() bool {
		n--
		return n < 0
	}
}
