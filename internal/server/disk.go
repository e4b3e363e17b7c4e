// Disk attachment: the server's storage tier behind serverSeq is either
// the memory-backed storage.Versioned the server has always used, or the
// durable disk.DB (page files + WAL + buffer pool,
// internal/storage/disk). AttachDisk swaps the tier: existing sequences
// and persisted views are loaded, the epoch tracker is seeded from the
// database's recovered epoch, and every subsequent write (create,
// append, reorganize, materialize, drop view) follows write-ahead
// discipline through the disk layer before it publishes in memory. Reads
// are the same on both tiers: each hands out epoch-pinned
// *storage.Snapshot leaves — a disk snapshot's pages are fetched through
// the buffer pool — so snapshot isolation, planlint verification and
// EXPLAIN ANALYZE page attribution work identically, disk snapshots
// merely adding buffer-pool counters to the same storage.Stats blocks.
package server

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// versionedSeq is one multi-version base sequence as the server sees
// it: epoch-pinned snapshot reads plus epoch-explicit writes. Writes
// are only ever called under Server.wmu, matching the
// publish-then-advance protocol; SnapshotAt returns nil when the store
// has no version at or below the epoch. *storage.Versioned implements
// it for the memory tier, *disk.Seq for the disk tier, whose writes are
// WAL-logged and durable before they publish. The database's own epoch
// follows the server's epochs because every write carries the epoch the
// server chose under wmu.
type versionedSeq interface {
	SnapshotAt(epoch int64) *storage.Snapshot
	LatestEpoch() int64
	Versions() int
	PageVersions() int
	GC(minLive int64) (versions, pages int)
	Append(e seq.Entry, epoch int64) error
	Reorganize(kind storage.Kind, epoch int64) error
}

// AttachDisk makes the database the server's storage tier. Call it
// once, after New and before the server accepts writes or sessions: the
// recovered sequences are registered with freshly computed column
// statistics, the epoch tracker is advanced to the database's recovered
// epoch, and persisted materialized views are re-planned at that epoch
// and registered valid from their saved epochs (a persisted view is
// guaranteed consistent — any base write after its registration would
// have deleted it from the catalog, and a reorganize keeps content). The server does not close the database; the owner closes it
// after Server.Close returns.
func (s *Server) AttachDisk(db *disk.DB) error {
	if err := s.attachSeqs(db); err != nil {
		return err
	}
	for _, v := range db.Views() {
		if err := s.reattachView(v); err != nil {
			return fmt.Errorf("server: reattach view %q: %w", v.Name, err)
		}
	}
	return nil
}

// attachSeqs is AttachDisk's write under wmu: seed the epoch tracker and
// register the recovered sequences. The views are reattached after it,
// each through the read path, which takes its worker slot before wmu.
func (s *Server) attachSeqs(db *disk.DB) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.disk != nil {
		return fmt.Errorf("server: a disk database is already attached")
	}
	s.mu.RLock()
	populated := len(s.seqs) > 0
	s.mu.RUnlock()
	if populated {
		return fmt.Errorf("server: attach the disk database before creating sequences")
	}
	if e := db.Epoch(); e > s.epochs.Current() {
		if err := s.epochs.AdvanceTo(e); err != nil {
			return err
		}
	}
	for _, name := range db.Names() {
		ds, ok := db.Seq(name)
		if !ok {
			continue // dropped between Names and Seq; nothing serves it
		}
		m, err := materializeSnapshot(ds)
		if err != nil {
			return fmt.Errorf("server: load sequence %q: %w", name, err)
		}
		ss := &serverSeq{name: name, v: ds, stats: meta.StatsFromMaterialized(m), pages: &storage.Stats{}}
		s.mu.Lock()
		s.seqs[name] = ss
		s.mu.Unlock()
	}
	s.disk = db
	s.planGen.Add(1)
	return nil
}

// materializeSnapshot collects the latest version of a disk sequence
// into memory — the input for column statistics at attach time.
func materializeSnapshot(ds *disk.Seq) (*seq.Materialized, error) {
	entries, err := seq.Collect(ds.Latest().Scan(seq.AllSpan))
	if err != nil {
		return nil, err
	}
	return seq.NewMaterialized(ds.Schema(), entries)
}

// reattachView re-plans a persisted view's SEQL through the read path,
// without view substitution, and registers the stored entries in the
// matview registry, valid from the view's saved epoch — the same
// canonical block readers match against, without recomputing the view's
// content. It binds at the recovered epoch, not the saved one: a
// reorganize since the save keeps the view, but recovery keeps only the
// reorganized version, so the saved epoch may have no snapshot left.
func (s *Server) reattachView(v *disk.View) error {
	sess := s.NewSession("attach")
	sess.useViews = false
	return sess.read(v.SEQL, nil, v.Span, func(res *core.Result, _ int64, _ time.Duration) error {
		data, err := seq.NewMaterialized(res.Rewritten.Schema, v.Entries)
		if err != nil {
			return err
		}
		s.wmu.Lock()
		defer s.wmu.Unlock()
		_, err = s.views.RegisterAt(v.Name, res.Rewritten, data, v.Span, v.Epoch)
		s.planGen.Add(1)
		return err
	})
}

// persistView writes a freshly materialized view through the attached
// database (no-op without one). Called under wmu, after the registry
// registration succeeded; on failure the registration is rolled back so
// memory and disk stay consistent.
func (s *Server) persistView(name, seql string, span seq.Span, epoch int64, bases []string, out *seq.Materialized) error {
	if s.disk == nil {
		return nil
	}
	err := s.disk.PutViewAt(&disk.View{
		Name: name, SEQL: seql, Span: span, Epoch: epoch,
		Bases: bases, Entries: out.Entries(),
	})
	if err != nil {
		s.views.Drop(name)
	}
	return err
}

// diskViews returns the attached database's persisted view names (nil
// without an attached database).
func (s *Server) diskViews() map[string]bool {
	if s.disk == nil {
		return nil
	}
	names := make(map[string]bool)
	for _, v := range s.disk.Views() {
		names[v.Name] = true
	}
	return names
}
