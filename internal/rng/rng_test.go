package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincided %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	var sum float64
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("digit %d count %d, want ~10000", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if hits < 29000 || hits > 31000 {
		t.Errorf("Bool(0.3) hit %d of 100000", hits)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

// TestSeedMatchesNew pins the stream (values recorded before Seed was split
// out of New) and checks that re-seeding a used Rand restarts it.
func TestSeedMatchesNew(t *testing.T) {
	want := []uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1}
	var r Rand
	r.Seed(7)
	r.Uint64()
	r.Seed(42)
	n := New(42)
	for i, w := range want {
		if a, b := r.Uint64(), n.Uint64(); a != w || b != w {
			t.Errorf("value %d: Seed %#x, New %#x, want %#x", i, a, b, w)
		}
	}
	if got := New(0).Uint64(); got != 0x99ec5f36cb75f2b4 {
		t.Errorf("New(0) first value %#x", got)
	}
}
