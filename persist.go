// Durable databases: Open gives the single-session seqproc API a disk
// tier — page files, a write-ahead log and crash recovery behind a
// metered buffer pool (internal/storage/disk, docs/STORAGE.md). Every
// mutation (CreateSequence, Append, Reorganize, DropSequence,
// Materialize, DropView) is WAL-logged before it publishes, so a crash
// at any point recovers to the last acknowledged write on the next
// Open. Queries are unchanged: the catalog hands the optimizer
// snapshots of the latest durable versions, and page accesses flow
// through the same storage.Stats counters — plus the buffer-pool
// hit/miss/eviction split only the disk tier produces.
package seqproc

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/parser"
	"repro/internal/seq"
	"repro/internal/storage"
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
	db.disk = ddb
	for _, name := range ddb.Names() {
		ds, ok := ddb.Seq(name)
		if !ok {
			continue
		}
		entries, err := seq.Collect(ds.Latest().Scan(seq.AllSpan))
		if err != nil {
			ddb.Close()
			return nil, fmt.Errorf("seqproc: load %q: %w", name, err)
		}
		m, err := seq.NewMaterialized(ds.Schema(), entries)
		if err != nil {
			ddb.Close()
			return nil, fmt.Errorf("seqproc: load %q: %w", name, err)
		}
		db.seqs[name] = &dbSeq{
			name:  name,
			store: ds.Latest().Fork(&storage.Stats{}),
			stats: meta.StatsFromMaterialized(m),
			dseq:  ds,
		}
	}
	for _, v := range ddb.Views() {
		if err := db.reattachView(v); err != nil {
			ddb.Close()
			return nil, fmt.Errorf("seqproc: reattach view %q: %w", v.Name, err)
		}
	}
	return db, nil
}

// reattachView re-plans a persisted view's SEQL and registers the
// stored entries under the same canonical block queries match against.
// A persisted view is consistent with the recovered bases by
// construction: any base write after its registration deleted it.
func (db *DB) reattachView(v *disk.View) error {
	root, err := parser.Bind(v.SEQL, db.catalog())
	if err != nil {
		return err
	}
	opts := db.opts
	opts.Views = nil
	res, err := core.Optimize(root, v.Span, opts)
	if err != nil {
		return err
	}
	data, err := seq.NewMaterialized(res.Rewritten.Schema, v.Entries)
	if err != nil {
		return err
	}
	_, err = db.views.Register(v.Name, res.Rewritten, data, v.Span)
	return err
}

// persistView writes a freshly registered view through the disk tier
// (no-op for in-memory databases), rolling the registration back on
// failure so catalog and disk stay consistent.
func (db *DB) persistView(name, seql string, res *core.Result, out *seq.Materialized) error {
	if db.disk == nil {
		return nil
	}
	err := db.disk.PutViewAt(&disk.View{
		Name: name, SEQL: seql, Span: res.RunSpan, Epoch: db.disk.Epoch(),
		Bases: viewBases(res.Rewritten), Entries: out.Entries(),
	})
	if err != nil {
		db.views.Drop(name)
	}
	return err
}

// viewBases collects the distinct base-sequence names a plan reads.
func viewBases(root *algebra.Node) []string {
	seen := map[string]bool{}
	var names []string
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if n.Kind == algebra.KindBase && !seen[n.Name] {
			seen[n.Name] = true
			names = append(names, n.Name)
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(root)
	return names
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

// GC reclaims superseded on-disk versions and their page slots. The
// library's queries resolve the latest version when they run, so none
// references reclaimed state. Returns versions dropped and pages
// released, their slots freed (both 0 for in-memory databases, which
// drop superseded versions as they write).
func (db *DB) GC() (versions, pages int) {
	if db.disk == nil {
		return 0, 0
	}
	return db.disk.GC(db.disk.Epoch() - 1)
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
