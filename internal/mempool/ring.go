package mempool

import "fmt"

// Ring is a fixed-capacity FIFO ring buffer, the simulation counterpart of
// DPDK's rte_ring used between worker and device threads. Capacity is
// rounded up to a power of two for cheap index masking.
type Ring[T any] struct {
	buf  []T
	mask uint64
	head uint64 // next slot to pop
	tail uint64 // next slot to push

	drops uint64
}

// NewRing creates a ring holding at least n elements.
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		panic(fmt.Sprintf("mempool: ring capacity must be positive, got %d", n))
	}
	cap := 1
	for cap < n {
		cap <<= 1
	}
	return &Ring[T]{buf: make([]T, cap), mask: uint64(cap - 1)}
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return int(r.tail - r.head) }

// Push enqueues v; it reports false (and counts a drop) when full.
func (r *Ring[T]) Push(v T) bool {
	if r.tail-r.head == uint64(len(r.buf)) {
		r.drops++
		return false
	}
	r.buf[r.tail&r.mask] = v
	r.tail++
	return true
}

// Pop dequeues the oldest element; ok is false when empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.head == r.tail {
		var zero T
		return zero, false
	}
	v = r.buf[r.head&r.mask]
	var zero T
	r.buf[r.head&r.mask] = zero
	r.head++
	return v, true
}
