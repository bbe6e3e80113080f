package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nba/internal/simtime"
)

func emitN(t *Tracer, n int) {
	for i := 0; i < n; i++ {
		t.Emit(simtime.Time(i)*simtime.Microsecond, KindBatch, int32(i%4), "elem", int64(i), int64(i*2), 0, 0)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, KindBatch, 0, "x", 1, 2, 3, 4)
	if tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil || tr.Checkpoints() != nil {
		t.Fatal("nil tracer must report empty state")
	}
	if got := tr.Digest(); !strings.HasPrefix(got, "sha256:") {
		t.Fatalf("nil digest = %q", got)
	}
	if tr.Digest() != New(Options{}).Digest() {
		t.Fatal("nil tracer digest must equal empty tracer digest")
	}
}

func TestDigestDeterministicAndSensitive(t *testing.T) {
	a, b := New(Options{}), New(Options{})
	emitN(a, 100)
	emitN(b, 100)
	if a.Digest() != b.Digest() {
		t.Fatal("identical streams must have identical digests")
	}
	c := New(Options{})
	emitN(c, 99)
	c.Emit(99*simtime.Microsecond, KindBatch, 3, "elem", 99, 199, 0, 0) // B differs by 1
	if a.Digest() == c.Digest() {
		t.Fatal("single-payload-bit change must change the digest")
	}
}

func TestDigestIndependentOfCapacity(t *testing.T) {
	small := New(Options{Capacity: 8})
	large := New(Options{Capacity: 1024})
	emitN(small, 300)
	emitN(large, 300)
	if small.Digest() != large.Digest() {
		t.Fatal("digest must cover all events regardless of ring capacity")
	}
	if small.Dropped() != 300-8 {
		t.Fatalf("dropped = %d, want %d", small.Dropped(), 300-8)
	}
}

func TestRingWraparoundOrder(t *testing.T) {
	tr := New(Options{Capacity: 16})
	emitN(tr, 40)
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	for i, ev := range evs {
		want := uint64(40 - 16 + i)
		if ev.Seq != want {
			t.Fatalf("event %d: seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestMaskFiltersKinds(t *testing.T) {
	tr := New(Options{Mask: MaskOf(KindRx)})
	tr.Emit(0, KindBatch, 0, "elem", 1, 0, 0, 0)
	tr.Emit(0, KindRx, 0, "", 0, 8, 2, 0)
	if tr.Total() != 1 {
		t.Fatalf("total = %d, want 1 (batch masked out)", tr.Total())
	}
	if tr.Events()[0].Kind != KindRx {
		t.Fatal("retained event must be the rx event")
	}
}

func TestCheckpoints(t *testing.T) {
	tr := New(Options{CheckpointInterval: 10})
	emitN(tr, 35)
	cps := tr.Checkpoints()
	if len(cps) != 3 {
		t.Fatalf("got %d checkpoints, want 3", len(cps))
	}
	for i, cp := range cps {
		if cp.Seq != uint64((i+1)*10) {
			t.Fatalf("checkpoint %d: seq = %d", i, cp.Seq)
		}
	}
	// A second identical run produces the same chain; a perturbed run
	// diverges at the right window.
	tr2 := New(Options{CheckpointInterval: 10})
	emitN(tr2, 35)
	if _, _, div := DiffCheckpoints(cps, tr2.Checkpoints()); div {
		t.Fatal("identical runs must have identical checkpoint chains")
	}
	tr3 := New(Options{CheckpointInterval: 10})
	for i := 0; i < 35; i++ {
		b := int64(i * 2)
		if i == 17 {
			b++ // perturb one event in the second window
		}
		tr3.Emit(simtime.Time(i)*simtime.Microsecond, KindBatch, int32(i%4), "elem", int64(i), b, 0, 0)
	}
	lo, hi, div := DiffCheckpoints(cps, tr3.Checkpoints())
	if !div || lo != 10 || hi != 20 {
		t.Fatalf("divergence window = (%d,%d] div=%v, want (10,20]", lo, hi, div)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("kind %d round-trip failed: %q -> %v %v", k, k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Fatal("unknown kind name must not resolve")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(Options{Capacity: 64, CheckpointInterval: 16})
	emitN(tr, 50)
	tr.Emit(simtime.Millisecond, KindLBUpdate, 1, "alb", -42, 7, -1, 3)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, "unit"); err != nil {
		t.Fatal(err)
	}
	f, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta.Label != "unit" || f.Meta.Total != 51 || f.Meta.Digest != tr.Digest() {
		t.Fatalf("meta mismatch: %+v", f.Meta)
	}
	want := tr.Events()
	if len(f.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(f.Events), len(want))
	}
	for i := range want {
		if f.Events[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, f.Events[i], want[i])
		}
	}
	if len(f.Checkpoints) != len(tr.Checkpoints()) {
		t.Fatal("checkpoint count mismatch")
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr := New(Options{})
	emitN(tr, 5)
	// A GPU kernel phase event with C = start (ps) becomes a complete slice.
	tr.Emit(10*simtime.Microsecond, KindGPUKernel, 0, "gpu0", 1, 64, int64(4*simtime.Microsecond), 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(arr) != 6 {
		t.Fatalf("got %d chrome events, want 6", len(arr))
	}
	last := arr[5]
	if last["ph"] != "X" {
		t.Fatalf("kernel phase should be a complete slice, got ph=%v", last["ph"])
	}
}

func TestDiff(t *testing.T) {
	a := New(Options{})
	b := New(Options{})
	emitN(a, 20)
	for i := 0; i < 20; i++ {
		bVal := int64(i * 2)
		if i == 13 {
			bVal = 999
		}
		b.Emit(simtime.Time(i)*simtime.Microsecond, KindBatch, int32(i%4), "elem", int64(i), bVal, 0, 0)
	}
	d := Diff(a.Events(), b.Events())
	if d == nil || d.Index != 13 {
		t.Fatalf("diff = %v, want divergence at 13", d)
	}
	if !strings.Contains(d.Delta, "b 26 != 999") {
		t.Fatalf("delta %q should name field b", d.Delta)
	}
	if Diff(a.Events(), a.Events()) != nil {
		t.Fatal("identical streams must not diverge")
	}
	// Length divergence.
	d = Diff(a.Events(), a.Events()[:10])
	if d == nil || d.Index != 10 || d.B != nil || d.A == nil {
		t.Fatalf("length diff = %+v", d)
	}
	if !strings.Contains(d.String(), "trace B ended") {
		t.Fatalf("report %q", d.String())
	}
}

func TestSummarize(t *testing.T) {
	tr := New(Options{})
	tr.Emit(0, KindDispatch, -1, "", 0, 0, 0, 0)
	tr.Emit(1, KindBatch, 0, "IPLookup", 32, 5000, 1, 0)
	tr.Emit(2, KindBatch, 0, "IPLookup", 16, 2500, 1, 0)
	tr.Emit(3, KindBatch, 0, "DecIPTTL", 32, 300, 2, 0)
	tr.Emit(4, KindRx, 0, "", 0, 32, 5, 0)
	tr.Emit(5, KindRxDrop, 0, "", 0, 7, 2, 0)
	tr.Emit(6, KindGPUSubmit, 0, "gpu0", 1, 64, 100, 0)
	tr.Emit(simtime.Time(9000), KindGPUKernel, 0, "gpu0", 1, 64, 1000, 0)
	tr.Emit(7, KindLBUpdate, 0, "alb", 4602678819172646912, 0, 1, 2) // W=0.5

	s := Summarize(tr.Events())
	if s.Dispatch != 1 {
		t.Fatalf("dispatch = %d", s.Dispatch)
	}
	if len(s.Elements) != 2 || s.Elements[0].Name != "DecIPTTL" || s.Elements[1].Name != "IPLookup" {
		t.Fatalf("elements not sorted: %+v", s.Elements)
	}
	ipl := s.Elements[1]
	if ipl.Batches != 2 || ipl.Packets != 48 || ipl.Cycles != 7500 {
		t.Fatalf("IPLookup profile: %+v", ipl)
	}
	if ipl.BatchSizes.Percentile(50) != 16 || ipl.BatchSizes.Max() != 32 {
		t.Fatal("batch-size quantiles wrong")
	}
	if len(s.Queues) != 1 || s.Queues[0].Delivered != 32 || s.Queues[0].Dropped != 7 {
		t.Fatalf("queues: %+v", s.Queues[0])
	}
	if len(s.Devices) != 1 || s.Devices[0].Tasks != 1 || s.Devices[0].Kernel != 8000 {
		t.Fatalf("devices: %+v", s.Devices[0])
	}
	if len(s.Balancers) != 1 || s.Balancers[0].FinalW != 0.5 {
		t.Fatalf("balancers: %+v", s.Balancers[0])
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IPLookup") {
		t.Fatal("report should mention IPLookup")
	}
}

// TestSummarizeOverloadGovernor: the governors section prints the level
// names the events carried, the peak by severity and the last one seen.
func TestSummarizeOverloadGovernor(t *testing.T) {
	tr := New(Options{})
	bias := func(at simtime.Time) { tr.EmitT(at, KindOverloadBias, 0, 1, "bias", 0, 0, 1, 0) }
	tr.EmitT(500, KindOverloadLevel, 0, 1, "trim", 1, 0, 1, 0)
	tr.EmitT(1000, KindOverloadLevel, 0, 1, "bias", 2, 1, 1, 0)
	bias(1000)
	bias(1250)
	bias(3250) // the release on leaving bias
	tr.EmitT(3250, KindOverloadLevel, 0, 1, "trim", 1, 2, 0, 0)

	var buf bytes.Buffer
	if err := Summarize(tr.Events()).Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "\noverload governors:\n  socket 0: 3 level transitions, peak bias, final trim, 3 bias updates\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("summary lacks %q:\n%s", want, buf.String())
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	tr := New(Options{Capacity: 1024, CheckpointInterval: -1})
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(simtime.Time(i), KindBatch, 0, "elem", i, i, i, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("enabled Emit allocates %v per call, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		nilTr.Emit(0, KindBatch, 0, "elem", 1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("nil Emit allocates %v per call, want 0", allocs)
	}
}
