// Package storage implements the physical representations of base
// sequences together with explicit access-cost accounting.
//
// The paper's cost model (§4.1.1) prices a base sequence by the number of
// pages touched and the kind of access: a *stream* access reads pages
// sequentially, a *probed* access fetches the page holding one position
// (random I/O). Page touches are counted exactly as a disk-resident store
// incurs them, so the optimizer's stream vs. probe trade-offs and the
// span-restriction savings remain observable.
//
// One page store serves every consumer: the versioned store (Versioned),
// read through the immutable Snapshot of one of its versions. Its pages
// are either resident — the library, the view registry and the
// experiments hold single-version stores built by FromMaterialized, and
// seqd publishes a version per write — or placed by a Residency: the
// disk tier's buffer pool (storage/disk), which credits its hits and
// misses to the same Stats.
// Pages come in the paper's two physical organisations (§3.4):
//
//   - KindDense: positional pages over the valid range, nil slots for
//     empty positions; probing is a single page touch (records are
//     addressable by position directly).
//   - KindSparse: sorted (position, record) entries packed into pages,
//     with a binary-search index; probing touches ~log2(pages) pages,
//     modeling a B-tree descent on an unclustered position index.
package storage

import (
	"fmt"
	"sync/atomic"

	"repro/internal/seq"
)

// Stats counts page and record accesses, split by access mode, plus the
// buffer-pool traffic behind them when the store is disk-backed. All
// counters are cumulative; use SnapshotAndReset (or Snapshot/Reset with
// the caveat below) around a measured region. Counters are updated
// atomically so concurrent scans may share a Stats.
//
// Consistency contract: Snapshot and Reset are atomic per counter but
// not atomic as a unit. A Snapshot concurrent with a Reset (or with
// in-flight accesses) may observe some counters already zeroed and
// others not, and a Reset racing in-flight accesses may drop or double
// the racing increments across the boundary. Callers that need a
// consistent measured region must quiesce accessors around the
// Reset/Snapshot pair — or use SnapshotAndReset, which swaps each
// counter exactly once so no increment is ever lost or double-counted
// even under concurrent accessors (each lands either in the returned
// snapshot or in the next region, never both and never neither). The
// individual counters never tear in any case.
//
// The pool counters (PoolHits … DirtyWrites) stay zero for the
// memory-backed stores; the disk buffer pool credits them alongside the
// page touches so EXPLAIN ANALYZE can attribute real I/O per plan node.
type Stats struct {
	SeqPages     atomic.Int64 // pages touched by stream (sequential) access
	RandPages    atomic.Int64 // pages touched by probed (random) access
	SeqRecords   atomic.Int64 // records delivered by stream access
	ProbeRecords atomic.Int64 // probe operations performed

	PoolHits      atomic.Int64 // buffer-pool lookups served from memory
	PoolMisses    atomic.Int64 // buffer-pool lookups that read the page file
	PoolEvictions atomic.Int64 // frames evicted to make room for this consumer
	DirtyWrites   atomic.Int64 // dirty frames written back on behalf of this consumer
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		SeqPages:     s.SeqPages.Load(),
		RandPages:    s.RandPages.Load(),
		SeqRecords:   s.SeqRecords.Load(),
		ProbeRecords: s.ProbeRecords.Load(),

		PoolHits:      s.PoolHits.Load(),
		PoolMisses:    s.PoolMisses.Load(),
		PoolEvictions: s.PoolEvictions.Load(),
		DirtyWrites:   s.DirtyWrites.Load(),
	}
}

// Reset zeroes all counters. Each store is an atomic write, so Reset is
// safe to call while scans run, but counters accumulated by accesses
// that race with the Reset may land on either side of it; see the Stats
// comment for the consistency contract. Measured regions should prefer
// SnapshotAndReset.
func (s *Stats) Reset() {
	s.SeqPages.Store(0)
	s.RandPages.Store(0)
	s.SeqRecords.Store(0)
	s.ProbeRecords.Store(0)

	s.PoolHits.Store(0)
	s.PoolMisses.Store(0)
	s.PoolEvictions.Store(0)
	s.DirtyWrites.Store(0)
}

// SnapshotAndReset atomically swaps every counter to zero and returns
// the values it held: the quiesced form of the Snapshot-then-Reset
// pair. Each counter is read-and-zeroed in a single atomic swap, so an
// increment racing the call lands either in the returned snapshot or in
// the counters afterwards — never in both, never in neither. The
// snapshot is still not a point-in-time cut across counters (an access
// in flight during the call may split its page and record increments
// across the boundary), but no counts are lost, which is the property
// measured regions actually need.
func (s *Stats) SnapshotAndReset() StatsSnapshot {
	return StatsSnapshot{
		SeqPages:     s.SeqPages.Swap(0),
		RandPages:    s.RandPages.Swap(0),
		SeqRecords:   s.SeqRecords.Swap(0),
		ProbeRecords: s.ProbeRecords.Swap(0),

		PoolHits:      s.PoolHits.Swap(0),
		PoolMisses:    s.PoolMisses.Swap(0),
		PoolEvictions: s.PoolEvictions.Swap(0),
		DirtyWrites:   s.DirtyWrites.Swap(0),
	}
}

// AddSnapshot folds a snapshot's counts into the live counters: the step
// that credits a fork's accesses (see Store.Fork) to the shared block
// once its consumer has finished.
func (s *Stats) AddSnapshot(d StatsSnapshot) {
	if d.SeqPages != 0 {
		s.SeqPages.Add(d.SeqPages)
	}
	if d.RandPages != 0 {
		s.RandPages.Add(d.RandPages)
	}
	if d.SeqRecords != 0 {
		s.SeqRecords.Add(d.SeqRecords)
	}
	if d.ProbeRecords != 0 {
		s.ProbeRecords.Add(d.ProbeRecords)
	}
	if d.PoolHits != 0 {
		s.PoolHits.Add(d.PoolHits)
	}
	if d.PoolMisses != 0 {
		s.PoolMisses.Add(d.PoolMisses)
	}
	if d.PoolEvictions != 0 {
		s.PoolEvictions.Add(d.PoolEvictions)
	}
	if d.DirtyWrites != 0 {
		s.DirtyWrites.Add(d.DirtyWrites)
	}
}

// StatsSnapshot is an immutable copy of Stats counters.
type StatsSnapshot struct {
	SeqPages     int64
	RandPages    int64
	SeqRecords   int64
	ProbeRecords int64

	PoolHits      int64
	PoolMisses    int64
	PoolEvictions int64
	DirtyWrites   int64
}

// Sub returns the counter deltas s - o.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		SeqPages:     s.SeqPages - o.SeqPages,
		RandPages:    s.RandPages - o.RandPages,
		SeqRecords:   s.SeqRecords - o.SeqRecords,
		ProbeRecords: s.ProbeRecords - o.ProbeRecords,

		PoolHits:      s.PoolHits - o.PoolHits,
		PoolMisses:    s.PoolMisses - o.PoolMisses,
		PoolEvictions: s.PoolEvictions - o.PoolEvictions,
		DirtyWrites:   s.DirtyWrites - o.DirtyWrites,
	}
}

// Add returns the element-wise sum s + o.
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		SeqPages:     s.SeqPages + o.SeqPages,
		RandPages:    s.RandPages + o.RandPages,
		SeqRecords:   s.SeqRecords + o.SeqRecords,
		ProbeRecords: s.ProbeRecords + o.ProbeRecords,

		PoolHits:      s.PoolHits + o.PoolHits,
		PoolMisses:    s.PoolMisses + o.PoolMisses,
		PoolEvictions: s.PoolEvictions + o.PoolEvictions,
		DirtyWrites:   s.DirtyWrites + o.DirtyWrites,
	}
}

// Pages returns the total pages touched in either mode.
func (s StatsSnapshot) Pages() int64 { return s.SeqPages + s.RandPages }

// HasPool reports whether any buffer-pool counter is nonzero — true only
// for regions that touched a disk-backed store.
func (s StatsSnapshot) HasPool() bool {
	return s.PoolHits != 0 || s.PoolMisses != 0 || s.PoolEvictions != 0 || s.DirtyWrites != 0
}

// String renders the snapshot compactly. The buffer-pool section is
// appended only when a pool was involved, so memory-backed renderings
// (and the golden outputs built on them) are unchanged.
func (s StatsSnapshot) String() string {
	base := fmt.Sprintf("seqPages=%d randPages=%d seqRecs=%d probes=%d",
		s.SeqPages, s.RandPages, s.SeqRecords, s.ProbeRecords)
	if !s.HasPool() {
		return base
	}
	return base + fmt.Sprintf(" poolHits=%d poolMisses=%d evictions=%d dirtyWrites=%d",
		s.PoolHits, s.PoolMisses, s.PoolEvictions, s.DirtyWrites)
}

// Store is a base-sequence store: a Sequence whose accesses are metered,
// scanned natively on either execution plane.
type Store interface {
	seq.Sequence
	seq.BatchScanner
	// Stats returns the store's counter block (shared, live).
	Stats() *Stats
	// Fork returns a view of the same data whose accesses count into
	// stats instead of the shared block: the per-consumer attribution
	// behind EXPLAIN ANALYZE. None of a fork's accesses reach Stats();
	// the consumer folds them back with Stats().AddSnapshot when done.
	Fork(stats *Stats) Store
	// AccessCosts describes the store to the optimizer: the number of
	// pages a full stream scan of the valid range touches, and the number
	// of page touches a single probe costs.
	AccessCosts() AccessCosts
}

// AccessCosts is the per-store input to the optimizer's cost model
// (§4.1.1). StreamPages is the page count of a full scan of the valid
// range; ProbePages is the pages touched per single-position probe.
type AccessCosts struct {
	StreamPages    int64
	ProbePages     int64
	RecordsPerPage int
}

// SeqSnapshot is the method set of an epoch-pinned *Snapshot. Both tiers
// now hand out *Snapshot itself; the interface stays only because the
// benchmark's replay mirror (bench/replay.go) names it.
type SeqSnapshot interface {
	Store
	// SnapshotEpoch is the reader epoch the snapshot is pinned at.
	SnapshotEpoch() int64
	// VersionEpoch is the epoch of the underlying version (the last
	// write visible in this snapshot); always ≤ SnapshotEpoch.
	VersionEpoch() int64
	// Kind is the snapshot's physical representation.
	Kind() Kind
	// Count is the number of non-Null records.
	Count() int
}

// Kind selects a physical representation.
type Kind int

// The available physical representations.
const (
	KindDense Kind = iota
	KindSparse
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindDense:
		return "dense"
	case KindSparse:
		return "sparse"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FromMaterialized packs a materialized sequence into a single-version
// store of the given kind.
func FromMaterialized(m *seq.Materialized, kind Kind, recordsPerPage int) (*Snapshot, error) {
	v, err := NewVersioned(m, kind, recordsPerPage, 0)
	if err != nil {
		return nil, err
	}
	return v.Latest(), nil
}

// DefaultRecordsPerPage is used when a store is built without an explicit
// page capacity. It corresponds loosely to 8 KiB pages of ~100-byte
// records.
const DefaultRecordsPerPage = 64
