package storage

// StatsForker is implemented by stores that can produce a read view of
// themselves whose accesses count into a private Stats block instead of
// the shared one. Forks exist for concurrent attribution: the Metered
// wrapper attributes pages by delta-snapshotting its store's counters
// around each access, which is exact only while accesses through those
// counters are serialized. A parallel run gives each worker a fork, so
// every worker's deltas move over counters only that worker touches.
//
// A fork shares the underlying data (reads remain safe concurrently) but
// none of the accesses it serves reach the shared counters; callers that
// need the shared totals to stay authoritative must fold each fork's
// Stats back into the shared block when the worker completes (see
// Stats.AddSnapshot).
type StatsForker interface {
	Store
	// Fork returns a view of the store counting into stats.
	Fork(stats *Stats) Store
}

// AddSnapshot folds a snapshot's counts into the live counters — the
// merge step that re-credits a completed worker fork's accesses to the
// shared store statistics.
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

// Fork implements StatsForker: a view over the same version counting
// into stats.
func (s *Snapshot) Fork(stats *Stats) Store {
	cp := *s
	cp.stats = stats
	return &cp
}
