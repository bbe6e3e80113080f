package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"nba/internal/simtime"
	"nba/internal/stats"
)

// ElementProfile is the per-element virtual-time profile accumulated from
// batch events.
type ElementProfile struct {
	Name       string
	Batches    uint64
	Packets    uint64
	Cycles     uint64
	BatchSizes stats.Quantiles
}

// QueueProfile aggregates RX-queue events per (port, queue).
type QueueProfile struct {
	Port      int32
	Queue     int64
	Polls     uint64
	Delivered uint64
	Dropped   uint64
	Backlogs  stats.Quantiles
}

// DeviceProfile aggregates GPU command-queue phases per device.
type DeviceProfile struct {
	Name       string
	Tasks      uint64
	Packets    uint64
	CopyH2D    simtime.Time
	Kernel     simtime.Time
	CopyD2H    simtime.Time
	SubmitLags stats.Quantiles // device backlog (ps) observed at submission
}

// LBProfile aggregates load-balancer control steps per socket.
type LBProfile struct {
	Socket  int32
	Updates uint64
	FinalW  float64
}

// ShedProfile aggregates overload-control sheds per worker.
type ShedProfile struct {
	Worker    int32
	Mechanism string // "codel", the one shedding mechanism
	Events    uint64
	Packets   uint64
}

// OverloadProfile aggregates governor activity per socket. A level event
// carries the level as a number, which orders levels by severity, and by
// name, which is what the summary prints.
type OverloadProfile struct {
	Socket      int32
	Transitions uint64
	PeakLevel   int64
	PeakName    string
	FinalName   string
	BiasUpdates uint64
}

// ReconfigEpoch is one runtime-reconfiguration epoch reconstructed from its
// begin/drain/commit events.
type ReconfigEpoch struct {
	Epoch    int64
	Kind     string       // reconfig event kind (tenant.admit, device.unplug, ...)
	Target   int64        // tenant index, device or port (kind-dependent)
	Begin    simtime.Time // when the epoch opened (quiesce instant)
	Drain    simtime.Time // drain-phase duration
	Forced   bool         // drain hit the DrainGrace deadline (orphaned)
	Reseated int64        // lanes / controllers / rings re-seated at commit
}

// IntegrityProfile aggregates sentinel re-execution activity per device.
type IntegrityProfile struct {
	Device      string
	Checks      uint64 // sentinel comparisons against this device
	Mismatches  uint64 // digest disagreements
	Quarantined uint64 // packets discarded on mismatch
	Demotions   uint64 // ALB weight-bound ratchets
	FailStops   uint64 // devices taken out of service
	Readmits    uint64 // recovery-probe re-admissions
	LastScore   float64
}

// Summary is the aggregate view of an event stream.
type Summary struct {
	Events      uint64
	Dispatch    uint64
	Elements    []*ElementProfile
	Queues      []*QueueProfile
	Devices     []*DeviceProfile
	Balancers   []*LBProfile
	Sheds       []*ShedProfile
	Overloads   []*OverloadProfile
	Reconfigs   []*ReconfigEpoch
	Integrities []*IntegrityProfile
}

// Summarize folds an event stream into per-element / per-queue / per-device
// profiles. Output ordering is deterministic (sorted by name or id).
func Summarize(events []Event) *Summary {
	s := &Summary{Events: uint64(len(events))}
	elems := map[string]*ElementProfile{}
	queues := map[[2]int64]*QueueProfile{}
	devs := map[string]*DeviceProfile{}
	lbs := map[int32]*LBProfile{}
	sheds := map[int32]*ShedProfile{}
	ovls := map[int32]*OverloadProfile{}
	ints := map[string]*IntegrityProfile{}
	integ := func(name string) *IntegrityProfile {
		ip := ints[name]
		if ip == nil {
			ip = &IntegrityProfile{Device: name}
			ints[name] = ip
		}
		return ip
	}
	epochs := map[int64]*ReconfigEpoch{}
	epoch := func(n int64) *ReconfigEpoch {
		re := epochs[n]
		if re == nil {
			re = &ReconfigEpoch{Epoch: n}
			epochs[n] = re
		}
		return re
	}
	ovl := func(actor int32) *OverloadProfile {
		op := ovls[actor]
		if op == nil {
			op = &OverloadProfile{Socket: actor}
			ovls[actor] = op
		}
		return op
	}

	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindDispatch:
			s.Dispatch++
		case KindBatch:
			ep := elems[ev.Name]
			if ep == nil {
				ep = &ElementProfile{Name: ev.Name}
				elems[ev.Name] = ep
			}
			ep.Batches++
			ep.Packets += uint64(ev.A)
			ep.Cycles += uint64(ev.B)
			ep.BatchSizes.Add(ev.A)
		case KindRx:
			qp := rxQueue(queues, ev)
			qp.Polls++
			qp.Delivered += uint64(ev.B)
			qp.Backlogs.Add(ev.C)
		case KindRxDrop:
			qp := rxQueue(queues, ev)
			qp.Dropped += uint64(ev.B)
		case KindGPUSubmit:
			dp := devs[ev.Name]
			if dp == nil {
				dp = &DeviceProfile{Name: ev.Name}
				devs[ev.Name] = dp
			}
			dp.Tasks++
			dp.Packets += uint64(ev.B)
			dp.SubmitLags.Add(ev.C)
		case KindGPUCopyH2D:
			if dp := devs[ev.Name]; dp != nil {
				dp.CopyH2D += ev.At - simtime.Time(ev.C)
			}
		case KindGPUKernel:
			if dp := devs[ev.Name]; dp != nil {
				dp.Kernel += ev.At - simtime.Time(ev.C)
			}
		case KindGPUCopyD2H:
			if dp := devs[ev.Name]; dp != nil {
				dp.CopyD2H += ev.At - simtime.Time(ev.C)
			}
		case KindLBUpdate:
			lp := lbs[ev.Actor]
			if lp == nil {
				lp = &LBProfile{Socket: ev.Actor}
				lbs[ev.Actor] = lp
			}
			lp.Updates++
			lp.FinalW = math.Float64frombits(uint64(ev.A))
		case KindOverloadShed:
			sp := sheds[ev.Actor]
			if sp == nil {
				sp = &ShedProfile{Worker: ev.Actor, Mechanism: ev.Name}
				sheds[ev.Actor] = sp
			}
			sp.Events++
			sp.Packets += uint64(ev.A)
		case KindOverloadLevel:
			op := ovl(ev.Actor)
			op.Transitions++
			op.FinalName = ev.Name
			if op.PeakName == "" || ev.A > op.PeakLevel {
				op.PeakLevel, op.PeakName = ev.A, ev.Name
			}
		case KindOverloadBias:
			ovl(ev.Actor).BiasUpdates++
		case KindReconfigBegin:
			re := epoch(ev.A)
			re.Kind = ev.Name
			re.Target = ev.C
			re.Begin = ev.At
		case KindReconfigDrain:
			re := epoch(ev.A)
			re.Drain = simtime.Time(ev.B)
			re.Forced = ev.D != 0
		case KindReconfigCommit:
			re := epoch(ev.A)
			re.Kind = ev.Name
			re.Target = ev.C
			re.Reseated = ev.D
		case KindIntegrityCheck:
			integ(ev.Name).Checks++
		case KindIntegrityMismatch:
			ip := integ(ev.Name)
			ip.Mismatches++
			ip.LastScore = math.Float64frombits(uint64(ev.C))
		case KindIntegrityQuarantine:
			integ(ev.Name).Quarantined += uint64(ev.B)
		case KindIntegrityDemote:
			ip := integ(ev.Name)
			switch ev.A {
			case 0:
				ip.Demotions++
			case 1:
				ip.FailStops++
			case 2:
				ip.Readmits++
			}
			ip.LastScore = math.Float64frombits(uint64(ev.B))
		}
	}

	for _, name := range stats.SortedKeys(elems) {
		s.Elements = append(s.Elements, elems[name])
	}
	qkeys := make([][2]int64, 0, len(queues))
	for k := range queues {
		qkeys = append(qkeys, k)
	}
	sort.Slice(qkeys, func(i, j int) bool {
		if qkeys[i][0] != qkeys[j][0] {
			return qkeys[i][0] < qkeys[j][0]
		}
		return qkeys[i][1] < qkeys[j][1]
	})
	for _, k := range qkeys {
		s.Queues = append(s.Queues, queues[k])
	}
	for _, name := range stats.SortedKeys(devs) {
		s.Devices = append(s.Devices, devs[name])
	}
	for _, k := range stats.SortedKeys(lbs) {
		s.Balancers = append(s.Balancers, lbs[k])
	}
	for _, k := range stats.SortedKeys(sheds) {
		s.Sheds = append(s.Sheds, sheds[k])
	}
	for _, k := range stats.SortedKeys(ovls) {
		s.Overloads = append(s.Overloads, ovls[k])
	}
	for _, k := range stats.SortedKeys(epochs) {
		s.Reconfigs = append(s.Reconfigs, epochs[k])
	}
	for _, name := range stats.SortedKeys(ints) {
		s.Integrities = append(s.Integrities, ints[name])
	}
	return s
}

func rxQueue(m map[[2]int64]*QueueProfile, ev *Event) *QueueProfile {
	key := [2]int64{int64(ev.Actor), ev.A}
	qp := m[key]
	if qp == nil {
		qp = &QueueProfile{Port: ev.Actor, Queue: ev.A}
		m[key] = qp
	}
	return qp
}

// Write renders the summary as a human-readable report.
func (s *Summary) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "events: %d (dispatch %d)\n", s.Events, s.Dispatch); err != nil {
		return err
	}
	if len(s.Elements) > 0 {
		fmt.Fprintf(w, "\nelements:\n")
		fmt.Fprintf(w, "  %-28s %10s %12s %14s %8s %8s %8s\n",
			"name", "batches", "packets", "cycles", "b.p50", "b.p99", "b.max")
		for _, e := range s.Elements {
			fmt.Fprintf(w, "  %-28s %10d %12d %14d %8d %8d %8d\n",
				e.Name, e.Batches, e.Packets, e.Cycles,
				e.BatchSizes.Percentile(50), e.BatchSizes.Percentile(99), e.BatchSizes.Max())
		}
	}
	if len(s.Queues) > 0 {
		fmt.Fprintf(w, "\nrx queues:\n")
		fmt.Fprintf(w, "  %-12s %10s %12s %10s %8s %8s %8s\n",
			"port/queue", "polls", "delivered", "dropped", "q.p50", "q.p99", "q.max")
		for _, q := range s.Queues {
			fmt.Fprintf(w, "  %-12s %10d %12d %10d %8d %8d %8d\n",
				fmt.Sprintf("%d/%d", q.Port, q.Queue), q.Polls, q.Delivered, q.Dropped,
				q.Backlogs.Percentile(50), q.Backlogs.Percentile(99), q.Backlogs.Max())
		}
	}
	if len(s.Devices) > 0 {
		fmt.Fprintf(w, "\ndevices:\n")
		fmt.Fprintf(w, "  %-16s %8s %12s %14s %14s %14s\n",
			"name", "tasks", "packets", "h2d", "kernel", "d2h")
		for _, d := range s.Devices {
			fmt.Fprintf(w, "  %-16s %8d %12d %14v %14v %14v\n",
				d.Name, d.Tasks, d.Packets, d.CopyH2D, d.Kernel, d.CopyD2H)
		}
	}
	if len(s.Balancers) > 0 {
		fmt.Fprintf(w, "\nload balancers:\n")
		for _, b := range s.Balancers {
			fmt.Fprintf(w, "  socket %d: %d updates, final W=%.4f\n", b.Socket, b.Updates, b.FinalW)
		}
	}
	if len(s.Sheds) > 0 {
		fmt.Fprintf(w, "\noverload sheds:\n")
		fmt.Fprintf(w, "  %-18s %10s %12s\n", "worker/mechanism", "events", "packets")
		for _, sp := range s.Sheds {
			fmt.Fprintf(w, "  %-18s %10d %12d\n",
				fmt.Sprintf("%d/%s", sp.Worker, sp.Mechanism), sp.Events, sp.Packets)
		}
	}
	if len(s.Overloads) > 0 {
		fmt.Fprintf(w, "\noverload governors:\n")
		for _, o := range s.Overloads {
			fmt.Fprintf(w, "  socket %d: %d level transitions, peak %s, final %s, %d bias updates\n",
				o.Socket, o.Transitions, o.PeakName, o.FinalName, o.BiasUpdates)
		}
	}
	if len(s.Reconfigs) > 0 {
		fmt.Fprintf(w, "\nreconfig epochs:\n")
		fmt.Fprintf(w, "  %-6s %-16s %7s %14s %14s %7s %9s\n",
			"epoch", "kind", "target", "begin", "drain", "forced", "reseated")
		for _, r := range s.Reconfigs {
			forced := "-"
			if r.Forced {
				forced = "yes"
			}
			fmt.Fprintf(w, "  %-6d %-16s %7d %14v %14v %7s %9d\n",
				r.Epoch, r.Kind, r.Target, r.Begin, r.Drain, forced, r.Reseated)
		}
	}
	if len(s.Integrities) > 0 {
		fmt.Fprintf(w, "\nintegrity sentinels:\n")
		fmt.Fprintf(w, "  %-16s %8s %10s %12s %8s %9s %8s %8s\n",
			"device", "checks", "mismatch", "quarantined", "demoted", "failstop", "readmit", "score")
		for _, ip := range s.Integrities {
			fmt.Fprintf(w, "  %-16s %8d %10d %12d %8d %9d %8d %8.3f\n",
				ip.Device, ip.Checks, ip.Mismatches, ip.Quarantined,
				ip.Demotions, ip.FailStops, ip.Readmits, ip.LastScore)
		}
	}
	return nil
}
