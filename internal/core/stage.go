package core

import (
	"nba/internal/netio"
	"nba/internal/packet"
	"nba/internal/par"
	"nba/internal/simtime"
)

// Sizes of a worker's RX stage set. The arena holds the four local queues'
// 64-packet bursts of 64 B frames twice over and about 180 frames of the
// CAIDA mix; a burst it cannot hold is staged in part, and the rest is
// filled at the poll as without a stage. With the default machine's 14
// workers the sets take 0.5 MB of the zone.
const (
	stagesPerWorker      = 16       // queues staged per pass: local ports × active lanes, cut here
	stageArenaPerWorker  = 32 << 10 // bytes of staged frames
	stageFramesPerWorker = 512      // staged frames
	fillChunk            = 4        // frames filled between checks of the executor's yield
	maxStageBackoff      = 32       // passes a worker stops arming after withdrawals in a row
)

// stager is a worker's RX stage set and its best-effort executor job. At
// the end of an IO-loop pass that polled RX and is not backpressured, the
// worker arms one stage per active lane queue with the seqs its next pass
// will poll (netio.RxQueue.Arm at the next iterate's start time) and offers
// the fill to the System's executor. Before it polls again it claims the
// job: a fill that has not started is withdrawn, and the polls fill those
// bursts themselves; one that is running is waited for. Either way every
// frame is the one the generator makes for its (port, seq), so nothing the
// run outputs depends on which side filled it (DESIGN.md §13).
type stager struct {
	stages  []netio.Stage  // the worker's zone carve
	arena   []byte         // the worker's zone carve
	ends    []int32        // the worker's zone carve
	scratch *packet.Packet // the generator's buffer, shared by the System's stagers
	armed   int            // stages armed for the job
	queued  bool           // the job was submitted and not claimed yet
	h       par.BestEffort
	// backoff and skip: a withdrawn job was pure overhead (arming, a wake of
	// the executor, a claim), so after one the worker skips the next 1, 3,
	// 7, … passes, up to maxBackoff (maxStageBackoff), until a job runs on
	// the executor again. On runs whose passes are too short for the
	// executor to start before the next poll this turns the stages off.
	backoff, skip, maxBackoff int

	exec *par.Executor // the System's, which runs the job
}

// RunJob implements par.Job: fill the armed stages in turn, packed into the
// worker's arena, until it runs out. Only the executor's goroutine runs it,
// one job at a time, so the System's stagers share one scratch.
func (sg *stager) RunJob() {
	// A fill stops between rounds of fillChunk frames once a device job is
	// queued behind it or the worker waits for it: the frames not staged
	// yet are filled at the poll.
	yield := func() bool { return sg.exec.Yield(&sg.h) }
	arena, ends := sg.arena, sg.ends
	for i := range sg.armed {
		used, n := sg.stages[i].Fill(arena, ends, sg.scratch, fillChunk, yield)
		arena, ends = arena[used:], ends[n:]
	}
}

// settleStages claims the worker's stage job, if one is queued, so the
// stages are safe to poll or re-arm.
//
//nba:hotpath
func (w *worker) settleStages() {
	if sg := &w.stage; sg.queued {
		sg.queued = false
		if !w.sys.exec.Claim(&sg.h) {
			sg.backoff = 0
			return
		}
		sg.backoff = min(2*sg.backoff+1, sg.maxBackoff)
		sg.skip = sg.backoff
	}
}

// armStages arms a stage on each active lane queue for a poll at time at
// and offers their fill to the executor. The pass settled the last job
// before it polled.
//
//nba:hotpath
func (w *worker) armStages(at simtime.Time) {
	sg := &w.stage
	for i := range sg.armed {
		sg.stages[i].Disarm()
	}
	sg.armed = 0
	if sg.skip > 0 {
		sg.skip--
		return
	}
arming:
	for _, ln := range w.lanes {
		if !w.active(ln) {
			continue
		}
		for _, q := range ln.rxqs {
			if sg.armed == len(sg.stages) {
				break arming
			}
			if q.Arm(&sg.stages[sg.armed], at, w.sys.cfg.IOBatchSize) {
				sg.armed++
			}
		}
	}
	if sg.armed > 0 {
		w.sys.exec.SubmitBestEffort(&sg.h, sg)
		sg.queued = true
	}
}
