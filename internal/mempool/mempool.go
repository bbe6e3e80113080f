// Package mempool provides freelist-based object pools modelled on DPDK's
// rte_mempool, which NBA relies on for allocating and releasing packet
// buffers and batch objects "at different times with minimal overheads"
// (paper §3.1).
//
// Pools are NUMA-aware in the sense that the framework creates one pool per
// socket and never shares a pool across sockets (shared-nothing workers),
// so no locking is needed — the simulation is single-threaded in virtual
// time anyway.
package mempool

import (
	"errors"
	"fmt"
)

// ErrExhausted is returned by Get when the pool is empty. Real DPDK mempools
// fail allocation the same way; callers must handle it (typically by
// dropping the batch), and the failure-injection tests exercise that path.
var ErrExhausted = errors.New("mempool: exhausted")

// Resetter can be implemented by pooled objects to be cleaned on release.
type Resetter interface{ Reset() }

// Stats counts pool activity.
type Stats struct {
	Gets        uint64
	Puts        uint64
	Failures    uint64 // Get calls that returned ErrExhausted
	HighWater   int    // max objects simultaneously outstanding
	Capacity    int
	Outstanding int
}

// Pool is a fixed-capacity freelist of *T. All objects are allocated up
// front; Get/Put never touch the Go heap, mirroring the "no allocation on
// the data path" discipline of the original system.
type Pool[T any] struct {
	free  []*T
	stats Stats
	name  string

	// inFree tracks which objects are currently on the freelist when debug
	// checks are enabled (see EnableDebugChecks); nil in normal operation,
	// so the hot path pays only a nil check.
	inFree map[*T]bool
}

// New creates a pool of capacity n. If construct is non-nil it is invoked
// once per object at creation time.
func New[T any](name string, n int, construct func(*T)) *Pool[T] {
	if n <= 0 {
		panic(fmt.Sprintf("mempool %q: capacity must be positive, got %d", name, n))
	}
	return NewOver(name, make([]T, n), construct)
}

// NewOver is New over caller-provided zeroed storage, one object per
// element: the owner of several pools carves them from one slab (DPDK's one
// memzone, many mempools).
//
// The pool hands out backing in index order and reuses returned objects
// first, so the objects it ever handed out are exactly
// backing[:Stats().HighWater]. With a nil construct the rest is still zero,
// and an owner that recycles a drained pool's storage restores all of it to
// zero by clearing that prefix alone.
func NewOver[T any](name string, backing []T, construct func(*T)) *Pool[T] {
	n := len(backing)
	if n == 0 {
		panic(fmt.Sprintf("mempool %q: empty backing storage", name))
	}
	p := &Pool[T]{
		free: make([]*T, 0, n),
		name: name,
	}
	p.stats.Capacity = n
	for i := n - 1; i >= 0; i-- {
		obj := &backing[i]
		if construct != nil {
			construct(obj)
		}
		p.free = append(p.free, obj)
	}
	if debugChecksDefault {
		p.EnableDebugChecks()
	}
	return p
}

// Name returns the pool's diagnostic name.
func (p *Pool[T]) Name() string { return p.name }

// Get pops an object from the freelist.
//
//nba:hotpath
func (p *Pool[T]) Get() (*T, error) {
	if len(p.free) == 0 {
		p.stats.Failures++
		return nil, ErrExhausted
	}
	obj := p.free[len(p.free)-1]
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	if p.inFree != nil {
		delete(p.inFree, obj)
	}
	p.stats.Gets++
	p.stats.Outstanding++ //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	if p.stats.Outstanding > p.stats.HighWater {
		p.stats.HighWater = p.stats.Outstanding //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	}
	return obj, nil
}

// MustGet is Get for callers that have sized the pool to never fail
// (startup paths); it panics on exhaustion.
func (p *Pool[T]) MustGet() *T {
	obj, err := p.Get()
	if err != nil {
		panic(fmt.Sprintf("mempool %q: %v (capacity %d)", p.name, err, p.stats.Capacity))
	}
	return obj
}

// Put returns an object to the freelist. If the object implements Resetter
// it is reset first. Returning more objects than the capacity panics: it
// always indicates a double-free bug.
//
//nba:hotpath
func (p *Pool[T]) Put(obj *T) {
	if obj == nil {
		panic(fmt.Sprintf("mempool %q: Put(nil)", p.name))
	}
	if p.inFree != nil && p.inFree[obj] {
		panic(fmt.Sprintf("mempool %q: double Put of %p", p.name, obj))
	}
	if len(p.free) >= p.stats.Capacity {
		panic(fmt.Sprintf("mempool %q: overflow on Put — double free?", p.name))
	}
	if r, ok := any(obj).(Resetter); ok {
		r.Reset()
	}
	p.free = append(p.free, obj) //nbalint:allow hotalloc free is preallocated to capacity in New; the overflow panic above bounds len
	if p.inFree != nil {
		p.inFree[obj] = true
	}
	p.stats.Puts++
	p.stats.Outstanding--
}

// AssertDrained returns an error when objects are still outstanding — i.e.
// the owner finished a run without every Get being matched by a Put. A
// non-zero count after a drained run is a leak (or, negative, a
// double-free that slipped past the Put guards).
func (p *Pool[T]) AssertDrained() error {
	if p.stats.Outstanding != 0 {
		return fmt.Errorf("mempool %q: %d object(s) still outstanding at drain (gets %d, puts %d, capacity %d)",
			p.name, p.stats.Outstanding, p.stats.Gets, p.stats.Puts, p.stats.Capacity)
	}
	return nil
}

// Available returns the number of objects currently free.
func (p *Pool[T]) Available() int { return len(p.free) }

// Stats returns a snapshot of pool statistics.
func (p *Pool[T]) Stats() Stats { return p.stats }
