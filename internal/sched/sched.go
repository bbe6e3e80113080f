// Package sched is the multi-tenant scheduler stage: it decides, under
// contention, which tenant a worker serves next (batch priority via
// deterministic weighted round-robin). The policy is a pure function of
// explicit state, so it inherits the framework's determinism contract for
// free.
package sched

// WRR is a deterministic smooth weighted round-robin over tenants. Each
// worker owns one instance and asks it, once per scheduling round, for the
// order in which to serve its tenant lanes: every tenant appears exactly
// once per round (arrivals must not be starved outright), but the rotation
// of who goes first — and therefore who gets the iteration's batch budget
// while it is fresh — tracks the tenants' configured shares.
//
// The zero-state behaviour is the identity: with one tenant the order is
// always [0], so single-tenant runs are bit-for-bit unchanged.
type WRR struct {
	weights []int64
	credit  []int64
	total   int64
	order   []int
}

// NewWRR builds a scheduler from tenant shares. Shares are scaled to
// integer weights (resolution 1/1000 of the share sum) so credit arithmetic
// is exact and replay-stable across architectures.
func NewWRR(shares []float64) *WRR {
	w := &WRR{
		weights: make([]int64, len(shares)),
		credit:  make([]int64, len(shares)),
		order:   make([]int, len(shares)),
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	for i, s := range shares {
		wi := int64(1)
		if sum > 0 {
			if v := int64(s / sum * 1000); v > wi {
				wi = v
			}
		}
		w.weights[i] = wi
		w.total += wi
		w.order[i] = i
	}
	return w
}

// SetShares re-splits the scheduler over a new share vector (runtime
// reconfiguration: admit grows the vector, evict zeroes a slot, retune
// changes one). Weights are recomputed exactly as NewWRR computes them and
// all credits reset to zero, so the post-commit rotation is a pure function
// of the new shares — the same WRR a fresh run with these shares would
// start with.
func (w *WRR) SetShares(shares []float64) {
	fresh := NewWRR(shares)
	w.weights, w.credit, w.total, w.order = fresh.weights, fresh.credit, fresh.total, fresh.order
}

// Round returns the tenant service order for one scheduling round. The
// returned slice is reused across calls; callers must not retain it.
//
//nba:hotpath
func (w *WRR) Round() []int {
	n := len(w.order)
	if n <= 1 {
		return w.order
	}
	for i := range w.credit {
		w.credit[i] += w.weights[i]
	}
	// Insertion sort by (credit desc, index asc): n is the tenant count
	// (single digits), and the stable tie-break keeps replay determinism.
	for i := range w.order {
		w.order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := w.order[j-1], w.order[j]
			if w.credit[b] > w.credit[a] {
				w.order[j-1], w.order[j] = b, a
			} else {
				break
			}
		}
	}
	// Only the front-of-round winner is charged: it consumed the priority.
	w.credit[w.order[0]] -= w.total
	return w.order
}
