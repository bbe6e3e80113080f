package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nba/internal/batch"
	"nba/internal/fault"
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
// hand out storage those packets live in.
func TestStuckRunKeepsItsZone(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
	cfg.TaskTimeout = -1
	cfg.DrainGrace = 500 * simtime.Microsecond
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{{At: 4 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0}}}
	s := newSystem(t, cfg)
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.PoolOutstanding == 0 {
		t.Fatal("the hung run drained; the test needs packets stuck on the device")
	}
	if spareZone() == s.zone {
		t.Fatal("a stuck run's zone became the spare")
	}
	if next := newSystem(t, cfg); next.zone == s.zone {
		t.Error("the next System was carved from a stuck run's storage")
	}
}
