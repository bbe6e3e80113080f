package mempool

import (
	"strings"
	"testing"
	"testing/quick"
)

type thing struct {
	n     int
	reset bool
}

func (t *thing) Reset() { t.reset = true; t.n = 0 }

func TestPoolGetPut(t *testing.T) {
	p := New[thing]("t", 4, func(th *thing) { th.n = 7 })
	if p.Available() != 4 {
		t.Fatalf("Available = %d, want 4", p.Available())
	}
	a := p.MustGet()
	if a.n != 7 {
		t.Errorf("construct not applied: n=%d", a.n)
	}
	a.n = 42
	p.Put(a)
	if !a.reset {
		t.Error("Put did not reset the object")
	}
	if p.Available() != 4 {
		t.Errorf("Available after Put = %d, want 4", p.Available())
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := New[thing]("t", 2, nil)
	x := p.MustGet()
	y := p.MustGet()
	if _, err := p.Get(); err != ErrExhausted {
		t.Errorf("Get on empty pool: err = %v, want ErrExhausted", err)
	}
	s := p.Stats()
	if s.Failures != 1 {
		t.Errorf("Failures = %d, want 1", s.Failures)
	}
	if s.HighWater != 2 || s.Outstanding != 2 {
		t.Errorf("HighWater=%d Outstanding=%d, want 2,2", s.HighWater, s.Outstanding)
	}
	p.Put(x)
	p.Put(y)
	if p.Stats().Outstanding != 0 {
		t.Errorf("Outstanding after returns = %d, want 0", p.Stats().Outstanding)
	}
}

func TestPoolMustGetPanicsWhenEmpty(t *testing.T) {
	p := New[thing]("t", 1, nil)
	p.MustGet()
	defer func() {
		if recover() == nil {
			t.Error("MustGet on empty pool did not panic")
		}
	}()
	p.MustGet()
}

func TestPoolDoubleFreePanics(t *testing.T) {
	p := New[thing]("t", 1, nil)
	x := p.MustGet()
	p.Put(x)
	defer func() {
		if recover() == nil {
			t.Error("overflowing Put did not panic")
		}
	}()
	p.Put(x)
}

func TestPoolPutNilPanics(t *testing.T) {
	p := New[thing]("t", 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("Put(nil) did not panic")
		}
	}()
	p.Put(nil)
}

func TestPoolNeverHandsOutDuplicates(t *testing.T) {
	// Property: a sequence of Get/Put operations never yields the same
	// pointer twice while it is outstanding.
	f := func(ops []bool) bool {
		p := New[thing]("t", 8, nil)
		out := map[*thing]bool{}
		for _, get := range ops {
			if get {
				obj, err := p.Get()
				if err != nil {
					continue
				}
				if out[obj] {
					return false // duplicate!
				}
				out[obj] = true
			} else {
				for o := range out {
					p.Put(o)
					delete(out, o)
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNewOverHandsOutHighWaterPrefix pins what recycling a drained pool's
// storage relies on: under any Get/Put sequence, exhaustion included, the
// objects a NewOver pool ever handed out are exactly backing[:HighWater].
func TestNewOverHandsOutHighWaterPrefix(t *testing.T) {
	f := func(ops []byte) bool {
		backing := make([]thing, 8)
		p := NewOver("t", backing, nil)
		seen := map[*thing]bool{}
		var out []*thing
		for _, op := range ops {
			if op%3 != 0 { // Get twice as often as Put, so runs hit exhaustion
				obj, err := p.Get()
				if err != nil {
					continue
				}
				seen[obj] = true
				out = append(out, obj)
			} else if len(out) > 0 {
				i := int(op) % len(out)
				p.Put(out[i])
				out = append(out[:i], out[i+1:]...)
			}
		}
		hw := p.Stats().HighWater
		if len(seen) != hw {
			return false
		}
		for i := range backing[:hw] {
			if !seen[&backing[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](4)
	for i := 1; i <= 4; i++ {
		if !r.Push(i) {
			t.Fatalf("Push(%d) failed", i)
		}
	}
	if r.Push(5) {
		t.Error("Push on full ring succeeded")
	}
	if r.Drops() != 1 {
		t.Errorf("Drops = %d, want 1", r.Drops())
	}
	if v, ok := r.Peek(); !ok || v != 1 {
		t.Errorf("Peek = %v,%v, want 1,true", v, ok)
	}
	for i := 1; i <= 4; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Errorf("Pop = %v,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop on empty ring succeeded")
	}
}

func TestRingRoundsUpToPowerOfTwo(t *testing.T) {
	r := NewRing[int](5)
	if r.Cap() != 8 {
		t.Errorf("Cap = %d, want 8", r.Cap())
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing[int](4)
	// Push/pop more than capacity to exercise index wrapping.
	for i := 0; i < 100; i++ {
		if !r.Push(i) {
			t.Fatalf("Push(%d) failed", i)
		}
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %v,%v, want %d", v, ok, i)
		}
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d, want 0", r.Len())
	}
}

func TestRingOrderProperty(t *testing.T) {
	f := func(vals []int) bool {
		r := NewRing[int](len(vals) + 1)
		for _, v := range vals {
			r.Push(v)
		}
		for _, want := range vals {
			got, ok := r.Pop()
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPoolGetPut(b *testing.B) {
	p := New[thing]("bench", 64, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obj := p.MustGet()
		p.Put(obj)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := NewRing[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(i)
		r.Pop()
	}
}

func TestAssertDrained(t *testing.T) {
	p := New[thing]("drain", 4, nil)
	if err := p.AssertDrained(); err != nil {
		t.Fatalf("fresh pool not drained: %v", err)
	}
	a, b := p.MustGet(), p.MustGet()
	err := p.AssertDrained()
	if err == nil {
		t.Fatal("2 outstanding objects, AssertDrained returned nil")
	}
	for _, want := range []string{`"drain"`, "2 object(s)", "gets 2", "puts 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	p.Put(a)
	p.Put(b)
	if err := p.AssertDrained(); err != nil {
		t.Fatalf("drained pool still errors: %v", err)
	}
}

// TestNewOverCarvesSlab: pools carved from one slab hand out exactly their
// own elements, in the order New would.
func TestNewOverCarvesSlab(t *testing.T) {
	slab := make([]thing, 6)
	a := NewOver("a", slab[:4], func(th *thing) { th.n = 1 })
	b := NewOver("b", slab[4:], nil)
	if a.Stats().Capacity != 4 || b.Stats().Capacity != 2 {
		t.Fatalf("capacities %d, %d; want 4, 2", a.Stats().Capacity, b.Stats().Capacity)
	}
	for i := 0; i < 4; i++ {
		if got := a.MustGet(); got != &slab[i] || got.n != 1 {
			t.Errorf("pool a object %d is not slab[%d] constructed", i, i)
		}
	}
	for i := 4; i < 6; i++ {
		if got := b.MustGet(); got != &slab[i] {
			t.Errorf("pool b object %d is not slab[%d]", i-4, i)
		}
	}
	if _, err := a.Get(); err != ErrExhausted {
		t.Errorf("pool a reached past its carve: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty backing accepted")
		}
	}()
	NewOver[thing]("empty", nil, nil)
}
