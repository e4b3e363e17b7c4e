// Package cache implements the operator caches of §3.4: position-ordered
// FIFO buffers that stream-access evaluation attaches to each operator,
// and the Ring every operator window is stored in. Cache sizes are fixed
// by the query plan; the package tracks peak residency so tests and
// experiments can verify the cache-finite property (Definition 3.2).
package cache

import (
	"fmt"

	"repro/internal/seq"
)

// FIFO is a first-in-first-out positional record cache: a fixed-size
// Ring of records plus the §3.4 accounting (capacity, peak residency,
// puts, evictions). Records are inserted in increasing position order
// (the order a stream access produces them); when the cache is full the
// oldest entry is evicted. Operators read it in order (Oldest, Newest,
// Ascend); none does keyed lookups.
type FIFO struct {
	ring Ring[seq.Record]
	cap  int
	// rows are PutRow's copy slots, allocated on its first call. The
	// k-th put lands in rows[k mod cap], the slot of put k-cap, which
	// this put evicts if it is still live; live entries never share one.
	rows []seq.Record

	lastPos seq.Pos
	havePos bool
	peak    int
	puts    int64
	evicts  int64
}

// NewFIFO returns a cache holding at most capacity entries.
// Capacity must be positive.
func NewFIFO(capacity int) *FIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity must be positive, got %d", capacity))
	}
	return &FIFO{ring: NewRing[seq.Record](capacity), cap: capacity}
}

// Len returns the number of live entries.
func (c *FIFO) Len() int { return c.ring.Len() }

// Cap returns the configured capacity.
func (c *FIFO) Cap() int { return c.cap }

// Peak returns the maximum number of entries ever resident.
func (c *FIFO) Peak() int { return c.peak }

// Puts and Evictions return the insertion counters.
func (c *FIFO) Puts() int64      { return c.puts }
func (c *FIFO) Evictions() int64 { return c.evicts }

// Put inserts a record at the given position, which must exceed every
// previously inserted position. Inserting a Null record is allowed: some
// operators cache "position known empty" results.
func (c *FIFO) Put(pos seq.Pos, rec seq.Record) {
	if c.havePos && pos <= c.lastPos {
		panic(fmt.Sprintf("cache: out-of-order Put at %d after %d", pos, c.lastPos))
	}
	c.lastPos, c.havePos = pos, true
	c.puts++
	if c.ring.Len() == c.cap {
		c.ring.PopFront()
		c.evicts++
	}
	c.ring.Push(pos, rec)
	if n := c.ring.Len(); n > c.peak {
		c.peak = n
	}
}

// PutRow inserts a copy of row i of b at pos, as Put does. The copy
// goes into a slot the cache owns and reuses, so a batch scan's puts do
// not allocate; the cached record stays valid until cap more puts.
func (c *FIFO) PutRow(pos seq.Pos, b *seq.Batch, i int, in *seq.Intern) {
	if width := len(b.Cols); len(c.rows) == 0 || len(c.rows[0]) != width {
		c.rows = make([]seq.Record, c.cap)
		slab := make([]seq.Value, c.cap*width)
		for k := range c.rows {
			c.rows[k] = seq.Record(slab[k*width : (k+1)*width : (k+1)*width])
		}
	}
	c.Put(pos, b.RowInto(i, c.rows[c.puts%int64(c.cap)], in))
}

// EvictBelow drops every entry with position < pos (used by sliding
// windows to retire records that left the scope).
func (c *FIFO) EvictBelow(pos seq.Pos) {
	for {
		if _, ok := c.ring.PopBelow(pos); !ok {
			return
		}
		c.evicts++
	}
}

// Oldest returns the oldest live entry.
func (c *FIFO) Oldest() (seq.Entry, bool) {
	if c.ring.Len() == 0 {
		return seq.Entry{}, false
	}
	p, r := c.ring.Front()
	return seq.Entry{Pos: p, Rec: r}, true
}

// Newest returns the most recently inserted entry.
func (c *FIFO) Newest() (seq.Entry, bool) {
	if c.ring.Len() == 0 {
		return seq.Entry{}, false
	}
	p, r := c.ring.Back()
	return seq.Entry{Pos: p, Rec: r}, true
}

// Ascend calls f on each live entry from oldest to newest, stopping early
// if f returns false.
func (c *FIFO) Ascend(f func(seq.Entry) bool) {
	for i := 0; i < c.ring.Len(); i++ {
		p, r := c.ring.At(i)
		if !f(seq.Entry{Pos: p, Rec: r}) {
			return
		}
	}
}

// Reset empties the cache and clears positional ordering state (counters
// are preserved so long-running plans keep cumulative statistics).
func (c *FIFO) Reset() {
	c.ring.Reset()
	c.havePos = false
}
