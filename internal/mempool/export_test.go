package mempool

// Peek returns the oldest element without removing it.
func (r *Ring[T]) Peek() (v T, ok bool) {
	if r.head == r.tail {
		var zero T
		return zero, false
	}
	return r.buf[r.head&r.mask], true
}

// Drops returns the number of failed Push calls.
func (r *Ring[T]) Drops() uint64 { return r.drops }
