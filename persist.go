// Durable databases: Open attaches a disk tier to the DB's engine
// (server.Server.AttachDisk) — page files, a write-ahead log and crash
// recovery behind a metered buffer pool (internal/storage/disk,
// docs/STORAGE.md). Every mutation (CreateSequence, Append, Reorganize,
// DropSequence, Materialize, DropView) is WAL-logged before it
// publishes, so a crash at any point recovers to the last acknowledged
// write on the next Open. Queries are unchanged: each plans against
// epoch-pinned snapshots of the durable versions, and page accesses
// flow through the same storage.Stats counters — plus the buffer-pool
// hit/miss/eviction split only the disk tier produces.
package seqproc

import (
	"fmt"
	"time"

	"repro/internal/storage/disk"
)

// DiskOptions tune the durable tier of an Open'd database. The zero
// value (or a nil pointer) selects the defaults documented in
// docs/STORAGE.md: 8 KiB pages, a 1024-page buffer pool, an fsync per
// append, and a background checkpoint every 15 seconds or 4 MiB of WAL.
type DiskOptions struct {
	// PageSize is the on-disk page size in bytes. An existing
	// database's page size always wins over this setting.
	PageSize int
	// RecordsPerPage caps records packed per page (0 = derive from
	// PageSize).
	RecordsPerPage int
	// PoolPages is the buffer-pool capacity in pages.
	PoolPages int
	// BatchFsync groups WAL fsyncs across appends (group commit):
	// higher throughput, but a crash may lose the last few
	// acknowledged appends within FsyncInterval.
	BatchFsync bool
	// FsyncInterval is the group-commit flush period when BatchFsync
	// is set.
	FsyncInterval time.Duration
	// CheckpointInterval is the background checkpoint period; negative
	// disables background checkpointing (Close still checkpoints).
	CheckpointInterval time.Duration
}

func (o *DiskOptions) config() disk.Config {
	if o == nil {
		return disk.Config{}
	}
	return disk.Config{
		PageSize:           o.PageSize,
		RecordsPerPage:     o.RecordsPerPage,
		PoolPages:          o.PoolPages,
		BatchFsync:         o.BatchFsync,
		FsyncInterval:      o.FsyncInterval,
		CheckpointInterval: o.CheckpointInterval,
	}
}

// Open opens (creating if absent) a durable database rooted at dir.
// Recovered sequences and materialized views are immediately
// queryable; recovery replays any WAL tail past the last checkpoint
// and discards torn records. opts may be nil for defaults.
func Open(dir string, opts *DiskOptions) (*DB, error) {
	ddb, err := disk.Open(dir, opts.config())
	if err != nil {
		return nil, err
	}
	db := New()
	if err := db.srv.AttachDisk(ddb); err != nil {
		ddb.Close()
		return nil, fmt.Errorf("seqproc: %w", err)
	}
	db.disk = ddb
	return db, nil
}

// Persistent reports whether the database is disk-backed, and its
// directory when it is.
func (db *DB) Persistent() (string, bool) {
	if db.disk == nil {
		return "", false
	}
	return db.disk.Dir(), true
}

// Checkpoint forces a checkpoint of a durable database: dirty pages are
// flushed, the catalog lands atomically, and the WAL truncates to the
// tail. Errors for in-memory databases.
func (db *DB) Checkpoint() error {
	if db.disk == nil {
		return fmt.Errorf("seqproc: in-memory database has no checkpoint")
	}
	return db.disk.Checkpoint()
}

// GC reclaims superseded versions (and their page slots, on the disk
// tier) and invalidated views that no running query still reads.
// Returns versions dropped and pages released. An in-memory database
// reclaims after each of its own writes; writes made over Connect wait
// for GC.
func (db *DB) GC() (versions, pages int) {
	versions, pages, _ = db.srv.GCOnce()
	return versions, pages
}

// Close checkpoints and closes the durable tier; the DB must not be
// used afterwards. A no-op for in-memory databases.
func (db *DB) Close() error {
	if db.disk == nil {
		return nil
	}
	err := db.disk.Close()
	db.disk = nil
	return err
}
