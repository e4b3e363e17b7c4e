package disk

import (
	"repro/internal/seq"
	"repro/internal/storage"
)

// Seq is one sequence of a DB. Its versions live in a storage.Versioned
// — the page store, copy-on-write appends, repacking and GC of the
// memory tier — whose pages the Seq places: in the DB's buffer pool in
// front of the sequence's page file. Readers obtain epoch-pinned
// storage.Snapshots whose page fetches go through the pool.
//
// A Seq exposes the reads of its store, never its writes: every write
// goes through the DB (AppendAt, ReorganizeAt, ...), which prepares it
// on the store, logs it to the WAL and only then publishes it.
type Seq struct {
	reads
	name   string
	fileID uint32
	file   *pageFile
	db     *DB
	v      *storage.Versioned // the store reads serves
}

// reads is the read side of a Seq's store.
type reads interface {
	Schema() *seq.Schema
	Kind() storage.Kind
	Latest() *storage.Snapshot
	SnapshotAt(epoch int64) *storage.Snapshot
	LatestEpoch() int64
	Versions() int
	PageVersions() int
}

// newSeq returns a sequence without versions and without a page file.
func (db *DB) newSeq(name string, fileID uint32, schema *seq.Schema, rpp int) *Seq {
	s := &Seq{name: name, fileID: fileID, db: db}
	s.v = storage.NewVersionedIn(schema, rpp, (*residency)(s))
	s.reads = s.v
	return s
}

// Name returns the sequence name.
func (s *Seq) Name() string { return s.name }

// Append appends e visible from epoch, WAL first (DB.AppendAt).
func (s *Seq) Append(e seq.Entry, epoch int64) error { return s.db.AppendAt(s.name, e, epoch) }

// Reorganize repacks into kind visible from epoch, WAL first
// (DB.ReorganizeAt).
func (s *Seq) Reorganize(kind storage.Kind, epoch int64) error {
	return s.db.ReorganizeAt(s.name, kind, epoch)
}

// GC drops this sequence's versions superseded at or before minLive and
// frees the disk slots of unreachable page versions, returning versions
// dropped and pages released. It takes the database writer lock — the
// per-sequence entry point the server's GC loop uses; DB.GC does the
// same for every sequence under one lock acquisition.
func (s *Seq) GC(minLive int64) (versions, pages int) {
	s.db.wmu.Lock()
	defer s.db.wmu.Unlock()
	return s.v.GC(minLive)
}

// residency is a Seq as its store sees it: the storage.Residency that
// places its pages. A head's Handle is the page's *pageRef.
type residency Seq

// Page fetches the frame of a head through the pool and hands its page
// over in place.
func (r *residency) Page(head *storage.Page, st *storage.Stats) (*storage.Page, error) {
	fr, err := r.db.pool.get((*Seq)(r), head.Handle.(*pageRef), st)
	if err != nil {
		return nil, err
	}
	return &fr.Page, nil
}

// Admit rejects a page that does not encode within the page size, so a
// write fails before it is logged instead of poisoning every later
// writeback and checkpoint.
func (r *residency) Admit(pg *storage.Page, kind storage.Kind, epoch int64) (*storage.Page, error) {
	if err := checkPageFits(&frame{kind: kind, epoch: epoch, Page: *pg}, r.db.cfg.PageSize); err != nil {
		return nil, err
	}
	return &newRef(epoch, pg.First, len(pg.Entries)+len(pg.Slots)).head, nil
}

// Publish puts a page into the pool as a dirty frame; a writeback or a
// checkpoint gives it a disk slot. Called with the writer lock held.
func (r *residency) Publish(head, pg *storage.Page, kind storage.Kind) error {
	ref := head.Handle.(*pageRef)
	return r.db.pool.put((*Seq)(r), ref, &frame{kind: kind, epoch: ref.epoch, Page: *pg}, nil)
}

// Release forgets the frames of unreachable pages and quarantines their
// disk slots. A page captured by the in-flight checkpoint must stay
// resident until its flush completes, so it is forgotten when the
// checkpoint ends instead. Called with the writer lock held.
func (r *residency) Release(heads []*storage.Page) {
	for _, h := range heads {
		ref := h.Handle.(*pageRef)
		if r.db.cpPins[ref] {
			r.db.cpDeferred = append(r.db.cpDeferred, deferredForget{file: r.file, ref: ref})
			continue
		}
		if phys := r.db.pool.forget(ref); phys >= 0 {
			r.file.freeSlot(phys)
		}
	}
}
