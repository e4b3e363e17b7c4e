package cache

import "repro/internal/seq"

// Ring is the one window store of the engine: a ring buffer of
// (position, value) pairs kept in increasing position order, pushed at
// the back and popped at either end. The zero value is an empty ring
// that grows on demand; a ring made by NewRing never grows as long as
// its owner keeps it at or below the given capacity (FIFO does). Pops
// leave the vacated slot's value in place until the slot is reused.
type Ring[T any] struct {
	pos  []seq.Pos
	val  []T
	head int
	n    int
}

// NewRing returns an empty ring with room for capacity pairs.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{pos: make([]seq.Pos, capacity), val: make([]T, capacity)}
}

// Len returns the number of live pairs.
func (r *Ring[T]) Len() int { return r.n }

// Push appends a pair at the back. The position must exceed the back's;
// callers on hot paths keep that order by construction, so it is not
// checked here.
func (r *Ring[T]) Push(p seq.Pos, v T) {
	if r.n == len(r.pos) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.pos) {
		i -= len(r.pos)
	}
	r.pos[i], r.val[i] = p, v
	r.n++
}

func (r *Ring[T]) grow() {
	capacity := len(r.pos) * 2
	if capacity < 8 {
		capacity = 8
	}
	pos := make([]seq.Pos, capacity)
	val := make([]T, capacity)
	for i := 0; i < r.n; i++ {
		pos[i], val[i] = r.At(i)
	}
	r.pos, r.val, r.head = pos, val, 0
}

// At returns the i-th live pair counted from the front (oldest).
func (r *Ring[T]) At(i int) (seq.Pos, T) {
	i += r.head
	if i >= len(r.pos) {
		i -= len(r.pos)
	}
	return r.pos[i], r.val[i]
}

// Front returns the oldest pair; the ring must not be empty.
func (r *Ring[T]) Front() (seq.Pos, T) { return r.pos[r.head], r.val[r.head] }

// Back returns the newest pair; the ring must not be empty.
func (r *Ring[T]) Back() (seq.Pos, T) { return r.At(r.n - 1) }

// PopFront drops the oldest pair; the ring must not be empty.
func (r *Ring[T]) PopFront() {
	r.head++
	if r.head == len(r.pos) {
		r.head = 0
	}
	r.n--
}

// PopBack drops the newest pair; the ring must not be empty.
func (r *Ring[T]) PopBack() { r.n-- }

// PopBelow drops the oldest pair and returns its value if its position
// is below p; otherwise it reports false and leaves the ring as it is.
// Draining a window's expired front is a loop over it, which hands each
// evicted value to the caller in eviction order.
func (r *Ring[T]) PopBelow(p seq.Pos) (v T, ok bool) {
	if r.n > 0 && r.pos[r.head] < p {
		v, ok = r.val[r.head], true
		r.PopFront()
	}
	return v, ok
}

// Reset empties the ring, keeping its storage.
func (r *Ring[T]) Reset() { r.head, r.n = 0, 0 }
