package sched

import "testing"

func TestWRRSingleTenantIsIdentity(t *testing.T) {
	w := NewWRR([]float64{1})
	for i := 0; i < 100; i++ {
		ord := w.Round()
		if len(ord) != 1 || ord[0] != 0 {
			t.Fatalf("round %d: single-tenant order %v, want [0]", i, ord)
		}
	}
}

// TestWRRRoundIsPermutation checks every round serves each tenant exactly
// once (no starvation), regardless of weights.
func TestWRRRoundIsPermutation(t *testing.T) {
	w := NewWRR([]float64{5, 1, 0.5, 3})
	for i := 0; i < 1000; i++ {
		ord := w.Round()
		seen := map[int]bool{}
		for _, ti := range ord {
			if ti < 0 || ti >= 4 || seen[ti] {
				t.Fatalf("round %d: order %v is not a permutation of 0..3", i, ord)
			}
			seen[ti] = true
		}
	}
}

// TestWRRFrontFrequencyTracksShares checks the front-of-round (priority)
// slot is won in proportion to the configured shares.
func TestWRRFrontFrequencyTracksShares(t *testing.T) {
	w := NewWRR([]float64{3, 1})
	const rounds = 4000
	firsts := [2]int{}
	for i := 0; i < rounds; i++ {
		firsts[w.Round()[0]]++
	}
	frac := float64(firsts[0]) / rounds
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("tenant with 3/4 share won the front slot %.3f of rounds, want ~0.75", frac)
	}
}

func TestWRRDeterministic(t *testing.T) {
	a, b := NewWRR([]float64{2, 1, 1}), NewWRR([]float64{2, 1, 1})
	for i := 0; i < 500; i++ {
		oa, ob := a.Round(), b.Round()
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("round %d diverged: %v vs %v", i, oa, ob)
			}
		}
	}
}
