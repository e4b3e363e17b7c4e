package disk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// pageRef is the durable identity of one immutable page version: the
// unit the buffer pool caches and the version tables point at. A ref is
// born dirty (phys −1, its frame pinned in the pool) and acquires a
// physical slot when written back — by eviction pressure or by a
// checkpoint. Page content is immutable after publication, so a ref is
// written at most once and never re-dirtied; the only mutable field is
// the slot assignment.
type pageRef struct {
	phys  atomic.Int64 // physical slot in the owning file; −1 until written back
	epoch int64        // epoch of the write that created this page version
	n     int          // entries (sparse) or slots (dense) on the page
	// head is the page as a version's index sees it: its First (the
	// position of the first entry/slot) and no records, which are
	// fetched through the pool.
	head storage.Page
}

func newRef(epoch int64, first int64, n int) *pageRef {
	r := &pageRef{epoch: epoch, n: n, head: storage.Page{First: first}}
	r.phys.Store(-1)
	return r
}

// poolSlot is one CLOCK ring entry.
type poolSlot struct {
	ref   *pageRef
	sq    *Seq
	fr    *frame
	used  bool // CLOCK reference bit
	dirty bool
}

// PoolCounters are the pool's aggregate traffic counters, for operator
// visibility; per-consumer attribution flows through storage.Stats.
type PoolCounters struct {
	Hits, Misses, Evictions, DirtyWrites int64
}

// pool is the CLOCK buffer pool, shared by every sequence of one DB.
// Frame residency, eviction, and phys assignment happen under mu; a
// miss's page read runs outside it (the index is re-checked on
// reacquire), so cold reads from concurrent sessions proceed in
// parallel. Consumers receive immutable frames they may keep using
// after eviction (a Go reference keeps the memory alive), so cursors
// never pin frames.
//
// Dirty frames are pinned by construction: eviction of a dirty slot
// first writes the frame back (assigning the ref's physical slot, no
// fsync — the WAL re-creates the page on crash), so a ref with phys −1
// is always resident. Lookups charge the consumer's storage.Stats block
// — hits, misses, and any evictions and writebacks the lookup forced —
// which is how real I/O reaches EXPLAIN ANALYZE attribution.
//
//seqvet:lockorder disk.pool.mu < disk.pageFile.mu
type pool struct {
	mu       sync.Mutex
	capacity int
	slots    []*poolSlot // CLOCK ring (order approximate: swap-removal)
	index    map[*pageRef]*poolSlot
	hand     int

	hits, misses, evictions, writebacks atomic.Int64
}

func newPool(capacity int) *pool {
	if capacity < 8 {
		capacity = 8
	}
	return &pool{capacity: capacity, index: make(map[*pageRef]*poolSlot)}
}

// get returns the frame for ref, reading it from the sequence's page
// file on a miss. The consumer's stats are credited with the hit or
// miss and with any eviction work the miss forced. The read I/O happens
// outside the pool lock so concurrent sessions' cold reads are not
// serialized behind one mutex; concurrent misses on the same ref may
// each read the page, and the first to reinsert wins.
func (p *pool) get(sq *Seq, ref *pageRef, st *storage.Stats) (*frame, error) {
	p.mu.Lock()
	if s, ok := p.index[ref]; ok {
		s.used = true
		p.hits.Add(1)
		p.mu.Unlock()
		if st != nil {
			st.PoolHits.Add(1)
		}
		return s.fr, nil
	}
	phys := ref.phys.Load()
	if phys < 0 {
		p.mu.Unlock()
		return nil, fmt.Errorf("disk: internal: dirty page version not resident in pool")
	}
	p.misses.Add(1)
	p.mu.Unlock()
	if st != nil {
		st.PoolMisses.Add(1)
	}
	fr, err := sq.file.readPage(phys)
	if err != nil {
		return nil, err
	}
	if fr.epoch != ref.epoch || fr.First != ref.head.First {
		return nil, fmt.Errorf("disk: %s: page %d does not match its reference (epoch %d/%d, first %d/%d)",
			sq.file.path, phys, fr.epoch, ref.epoch, fr.First, ref.head.First)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.index[ref]; ok {
		// Another reader inserted the page while we read it.
		s.used = true
		return s.fr, nil
	}
	if err := p.insertLocked(&poolSlot{ref: ref, sq: sq, fr: fr, used: true}, st); err != nil {
		return nil, err
	}
	return fr, nil
}

// put inserts a freshly created dirty frame (append, create, replay).
func (p *pool) put(sq *Seq, ref *pageRef, fr *frame, st *storage.Stats) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.index[ref]; ok {
		return fmt.Errorf("disk: internal: page version inserted twice")
	}
	return p.insertLocked(&poolSlot{ref: ref, sq: sq, fr: fr, used: true, dirty: true}, st)
}

// insertLocked makes room (CLOCK eviction) and inserts the slot.
func (p *pool) insertLocked(s *poolSlot, st *storage.Stats) error {
	for len(p.slots) >= p.capacity {
		if err := p.evictOneLocked(st); err != nil {
			return err
		}
	}
	p.index[s.ref] = s
	p.slots = append(p.slots, s)
	return nil
}

// evictOneLocked runs the CLOCK hand: clear reference bits until an
// unreferenced slot is found, write it back if dirty, and drop it.
func (p *pool) evictOneLocked(st *storage.Stats) error {
	for {
		if p.hand >= len(p.slots) {
			p.hand = 0
		}
		s := p.slots[p.hand]
		if s.used {
			s.used = false
			p.hand++
			continue
		}
		if s.dirty {
			if err := p.writeBackLocked(s, st); err != nil {
				return err
			}
		}
		p.evictions.Add(1)
		if st != nil {
			st.PoolEvictions.Add(1)
		}
		delete(p.index, s.ref)
		last := len(p.slots) - 1
		p.slots[p.hand] = p.slots[last]
		p.slots[last] = nil
		p.slots = p.slots[:last]
		return nil
	}
}

// writeBackLocked persists a dirty frame, assigning its ref's physical
// slot. No fsync: the page becomes durable at the next checkpoint; until
// then the WAL regenerates it on recovery.
func (p *pool) writeBackLocked(s *poolSlot, st *storage.Stats) error {
	phys, err := s.sq.file.writeFrame(s.fr)
	if err != nil {
		return err
	}
	s.ref.phys.Store(phys)
	s.dirty = false
	p.writebacks.Add(1)
	if st != nil {
		st.DirtyWrites.Add(1)
	}
	return nil
}

// flush writes back the dirty frame of ref, if any, keeping it resident
// and clean — the checkpoint's per-page step.
func (p *pool) flush(ref *pageRef) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.index[ref]
	if !ok {
		if ref.phys.Load() < 0 {
			return fmt.Errorf("disk: internal: dirty page version not resident at flush")
		}
		return nil
	}
	if !s.dirty {
		return nil
	}
	return p.writeBackLocked(s, nil)
}

// forget drops ref's frame without writing it back and returns the
// ref's physical slot (−1 if it never reached disk). After forget
// returns, no future writeback can assign a slot — residency and
// writebacks are serialized under mu — so the caller may free the
// returned slot.
func (p *pool) forget(ref *pageRef) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.index[ref]; ok {
		delete(p.index, ref)
		for i, r := range p.slots {
			if r == s {
				last := len(p.slots) - 1
				p.slots[i] = p.slots[last]
				p.slots[last] = nil
				p.slots = p.slots[:last]
				break
			}
		}
	}
	return ref.phys.Load()
}

// dropClean evicts every clean frame — the cold-cache lever benchmarks
// use. Dirty frames stay (dropping them would lose writes); run a
// checkpoint first for a fully cold pool.
func (p *pool) dropClean() {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.slots[:0]
	for _, s := range p.slots {
		if s.dirty {
			kept = append(kept, s)
		} else {
			delete(p.index, s.ref)
		}
	}
	for i := len(kept); i < len(p.slots); i++ {
		p.slots[i] = nil
	}
	p.slots = kept
	p.hand = 0
}

// counters snapshots the aggregate traffic.
func (p *pool) counters() PoolCounters {
	return PoolCounters{
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Evictions:   p.evictions.Load(),
		DirtyWrites: p.writebacks.Load(),
	}
}

// resident returns the number of resident frames.
func (p *pool) resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}
