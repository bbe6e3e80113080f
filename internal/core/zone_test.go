package core

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nba/internal/batch"
	"nba/internal/fault"
	"nba/internal/integrity"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// spareZone reads the spare slot.
func spareZone() *zone {
	spare.mu.Lock()
	defer spare.mu.Unlock()
	return spare.z.Value()
}

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// zoneIsZero reports whether every packet and batch of z is the zero value.
func zoneIsZero(z *zone) bool {
	for i := range z.pkts {
		if z.pkts[i] != (packet.Packet{}) {
			return false
		}
	}
	for i := range z.batches {
		if z.batches[i] != (batch.Batch{}) {
			return false
		}
	}
	return true
}

// TestZoneRecycledIntoNextSystem: a System built right after a drained one
// of the same shape is carved from the same storage, cleared to zero.
func TestZoneRecycledIntoNextSystem(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.5"), 3e9, 1024)
	s1 := newSystem(t, cfg)
	if _, err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	if spareZone() != s1.zone {
		t.Fatal("a drained run did not hand its zone back")
	}
	if n := testing.AllocsPerRun(10, func() { s1.zone.release(s1.workers) }); n != 0 {
		t.Errorf("handing a zone back allocates %.0f objects, want 0", n)
	}
	s2 := newSystem(t, cfg)
	if &s2.zone.pkts[0] != &s1.zone.pkts[0] || &s2.zone.batches[0] != &s1.zone.batches[0] {
		t.Fatal("the next System of the same shape allocated new storage")
	}
	if spareZone() != nil {
		t.Error("a taken zone is still the spare")
	}
	if !zoneIsZero(s2.zone) {
		t.Error("recycled zone is not zero")
	}
}

// TestStagesRecycledIntoNextSystem: the next System of a shape takes its
// workers' RX stage sets and the executor's fill scratch from the drained
// run's zone, allocating no stage storage, and the stages it gets point at
// nothing of the old run.
func TestStagesRecycledIntoNextSystem(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipv4LBConfigTpl, "cpu"), 10e9, 64)
	cfg.Duration = 2 * simtime.Millisecond
	s1 := newSystem(t, cfg)
	for _, w := range s1.workers {
		w.stage.maxBackoff = 0
	}
	armed := 0
	s1.eng.At(cfg.Warmup, func() { armed = stagesArmed(s1) })
	if _, err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	if armed == 0 {
		t.Fatal("the saturated run armed no stage")
	}
	s2 := newSystem(t, cfg)
	if s2.zone != s1.zone {
		t.Fatal("the next System of the same shape did not recycle the zone")
	}
	for i, w := range s2.workers {
		old, sg := &s1.workers[i].stage, &w.stage
		if &sg.stages[0] != &old.stages[0] || &sg.arena[0] != &old.arena[0] ||
			&sg.ends[0] != &old.ends[0] || sg.scratch != old.scratch {
			t.Fatalf("worker %d: the next System allocated new stage storage", i)
		}
		for k := range sg.stages {
			if !reflect.ValueOf(sg.stages[k]).IsZero() {
				t.Fatalf("worker %d: recycled stage %d still holds the old run's queue", i, k)
			}
		}
	}
}

// TestShadowsRecycledIntoNextSystem: the next System's sentinels take the
// integrity shadows a drained run released, and snapshotting into them
// allocates nothing.
func TestShadowsRecycledIntoNextSystem(t *testing.T) {
	cfg := corruptionCfg()
	s1 := newSystem(t, cfg)
	if _, err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	released := make([][]*integrity.Shadow, len(s1.zone.shadows))
	for i, list := range s1.zone.shadows {
		released[i] = slices.Clone(list)
	}
	s2 := newSystem(t, cfg)
	if s2.zone != s1.zone {
		t.Fatal("the next System of the same shape did not recycle the zone")
	}
	p := &packet.Packet{}
	p.CopyFrom([]byte{1, 2, 3, 4})
	b := &batch.Batch{}
	b.Add(p)
	agg := []*batch.Batch{b}
	reused := 0
	for i, w := range s2.workers {
		if len(released[i]) == 0 {
			continue
		}
		reused++
		sh := w.dev.sentinel.Snapshot(agg)
		if sh != released[i][len(released[i])-1] {
			t.Fatalf("worker %d's sentinel did not take the shadow its predecessor released last", i)
		}
		w.dev.sentinel.Release(sh)
		if n := testing.AllocsPerRun(10, func() {
			w.dev.sentinel.Verify(w.dev.sentinel.Snapshot(agg), func(*batch.Batch) {})
		}); n != 0 {
			t.Errorf("worker %d: snapshot/verify on a recycled shadow allocates %.0f objects, want 0", i, n)
		}
	}
	if reused == 0 {
		t.Fatal("the armed run released no shadow")
	}
}

// TestRecycledShadowsRunLikeFresh: an integrity-armed run through a
// corruption window on shadows another run dirtied detects, quarantines,
// reports and traces exactly what it does on fresh storage.
func TestRecycledShadowsRunLikeFresh(t *testing.T) {
	cfg := func() Config {
		cfg := corruptionCfg()
		cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		return cfg
	}
	runtime.GC()
	if spareZone() != nil {
		t.Fatal("spare survived a GC")
	}
	fcfg := cfg()
	fresh := run(t, fcfg)
	if fresh.IntegrityChecks == 0 || fresh.CorruptionDetected == 0 || fresh.QuarantinedPackets == 0 {
		t.Fatalf("fresh run: %d checks, %d detected, %d quarantined; the test needs all three",
			fresh.IntegrityChecks, fresh.CorruptionDetected, fresh.QuarantinedPackets)
	}

	dcfg := quickCfg(sprintfConfig(ipsecConfigTpl, "gpu"), 5e9, 1500)
	dcfg.Integrity = &integrity.Config{SampleRate: 1}
	dirty := newSystem(t, dcfg)
	if _, err := dirty.Run(); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg()
	s := newSystem(t, rcfg)
	if s.zone != dirty.zone || len(slices.Concat(s.zone.shadows...)) == 0 {
		t.Fatal("the run after the dirtying one did not get its shadows")
	}
	recycled, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fd, rd := fcfg.Tracer.Digest(), rcfg.Tracer.Digest(); fd != rd {
		t.Errorf("trace digest moved on recycled shadows: fresh %s, recycled %s", fd, rd)
	}
	if recycled.IntegrityChecks != fresh.IntegrityChecks ||
		recycled.CorruptionDetected != fresh.CorruptionDetected ||
		recycled.QuarantinedPackets != fresh.QuarantinedPackets {
		t.Errorf("integrity counters moved on recycled shadows: checks %d → %d, detected %d → %d, quarantined %d → %d",
			fresh.IntegrityChecks, recycled.IntegrityChecks, fresh.CorruptionDetected, recycled.CorruptionDetected,
			fresh.QuarantinedPackets, recycled.QuarantinedPackets)
	}
	if !reflect.DeepEqual(fresh, recycled) {
		t.Errorf("report moved on recycled shadows:\nfresh    %s\nrecycled %s",
			goldenDump(fresh, ""), goldenDump(recycled, ""))
	}
}

// TestRecycledZoneRunsLikeFresh: a run on storage another app dirtied
// reports and traces exactly what the same run on fresh storage does.
func TestRecycledZoneRunsLikeFresh(t *testing.T) {
	cfg := func() Config {
		cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.5"), 3e9, 256)
		cfg.CaptureTx = 64
		cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		return cfg
	}
	runtime.GC() // no System is alive: the next one gets fresh storage
	if spareZone() != nil {
		t.Fatal("spare survived a GC")
	}
	fcfg := cfg()
	fresh := run(t, fcfg)

	dirty := newSystem(t, quickCfg(sprintfConfig(ipsecConfigTpl, "gpu"), 5e9, 1500))
	if _, err := dirty.Run(); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg()
	s := newSystem(t, rcfg)
	if s.zone != dirty.zone {
		t.Fatal("the run after the dirtying one did not recycle its zone")
	}
	recycled, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fd, rd := fcfg.Tracer.Digest(), rcfg.Tracer.Digest(); fd != rd {
		t.Errorf("trace digest moved on recycled storage: fresh %s, recycled %s", fd, rd)
	}
	if !reflect.DeepEqual(fresh, recycled) {
		t.Errorf("report moved on recycled storage:\nfresh    %s\nrecycled %s",
			goldenDump(fresh, ""), goldenDump(recycled, ""))
	}
}

// TestSpareZoneGoesWithGC: the spare is a weak reference, so a GC with no
// System alive returns it to the heap.
func TestSpareZoneGoesWithGC(t *testing.T) {
	run(t, quickCfg(ipv4Config, 1e9, 64))
	if spareZone() == nil {
		t.Fatal("a drained run left no spare")
	}
	runtime.GC()
	if spareZone() != nil {
		t.Error("the spare survived a GC with no System alive")
	}
}

// TestZoneHandOverAcrossGoroutines: Systems built, run and released on
// several goroutines at once (a parallel sweep) pass zones between them and
// each reports what a lone run reports.
func TestZoneHandOverAcrossGoroutines(t *testing.T) {
	cfg := quickCfg(l2Config, 1e9, 64)
	want := goldenDump(run(t, cfg), "")
	const goroutines, runs = 4, 2
	got := make([]string, goroutines*runs)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				s, err := NewSystem(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				r, err := s.Run()
				if err != nil {
					t.Error(err)
					return
				}
				got[g*runs+i] = goldenDump(r, "")
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("run %d on a shared zone slot reported\n%s\nwant\n%s", i, g, want)
		}
	}
}

func TestRunIsSingleUse(t *testing.T) {
	s := newSystem(t, quickCfg(l2Config, 1e9, 64))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Run(); err == nil || r != nil {
		t.Errorf("second Run = %v, %v; want nil and an error", r, err)
	}
}

// TestStuckRunKeepsItsZone: a run the drain watchdog stops with packets
// still outstanding (a device hung for good, no rescue timeout) does not
// hand out storage those packets live in, nor the shadows of its sampled
// tasks still in flight. It also pins what lets release skip a shadow
// count: every shadow in use belongs to an in-flight aggregate whose
// batches are still out of the worker's batch pool.
func TestStuckRunKeepsItsZone(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
	cfg.TaskTimeout = -1
	cfg.DrainGrace = 500 * simtime.Microsecond
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{{At: 4 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0}}}
	cfg.Integrity = &integrity.Config{SampleRate: 1}
	s := newSystem(t, cfg)
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.PoolOutstanding == 0 {
		t.Fatal("the hung run drained; the test needs packets stuck on the device")
	}
	live := 0
	for i, w := range s.workers {
		held := 0
		for _, it := range w.dev.tasks {
			if it.shadow != nil {
				live++
				held += len(it.pending.Batches)
			}
		}
		if out := w.batchPool.Stats().Outstanding; out < held {
			t.Errorf("worker %d: %d batches out of the pool, but its sampled in-flight tasks hold %d", i, out, held)
		}
	}
	if live == 0 {
		t.Fatal("no sampled task is in flight; the test needs a live shadow")
	}
	if spareZone() == s.zone {
		t.Fatal("a stuck run's zone became the spare")
	}
	if next := newSystem(t, cfg); next.zone == s.zone {
		t.Error("the next System was carved from a stuck run's storage and shadows")
	}
}
