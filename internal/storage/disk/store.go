package disk

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/seq"
	"repro/internal/storage"
)

// Seq is one disk-backed multi-version sequence: the durable counterpart
// of storage.Versioned. Contents live in immutable page versions
// addressed by pageRefs; every mutation publishes a new version — a
// fresh ref table sharing every untouched page with its predecessor
// (copy-on-write at page granularity) — tagged with the epoch at which
// it becomes visible. Readers obtain an epoch-pinned storage.Snapshot
// whose page fetches go through the DB's buffer pool; writers log to the
// WAL before publishing.
//
// An Append copies at most one page (the tail it extends), so K retained
// epochs cost O(K) extra pages. GC drops versions older than every live
// reader and frees the disk slots of unreachable page versions.
//
// mu guards the version list only; page I/O happens outside it (reads
// through the pool before publication, which needs no lock because
// writers are serialized by the DB's writer lock).
//
//seqvet:lockorder leaf disk.Seq.mu
type Seq struct {
	name   string
	fileID uint32
	schema *seq.Schema
	rpp    int
	file   *pageFile
	db     *DB

	mu       sync.RWMutex
	versions []*dversion // ascending by epoch; last is latest
}

// dversion is one immutable published state of a Seq: its page table,
// and the storage snapshot reading it, pinned at the version's epoch.
// The dversion is that snapshot's page source: page i is table[i],
// fetched through the DB's buffer pool.
type dversion struct {
	sq    *Seq
	table []*pageRef
	snap  *storage.Snapshot
}

// newVersion builds the version over a page table.
func (s *Seq) newVersion(epoch int64, kind storage.Kind, span seq.Span, count int, table []*pageRef) *dversion {
	v := &dversion{sq: s, table: table}
	heads := make([]*storage.Page, len(table))
	for i, ref := range table {
		heads[i] = &ref.head
	}
	v.snap = storage.NewSourced(s.schema, kind, s.rpp, span, count, epoch, heads, v)
	return v
}

// Page implements storage.PageSource: the frame of table[i], handed to
// the reader in place.
func (v *dversion) Page(i int, st *storage.Stats) (*storage.Page, error) {
	fr, err := v.sq.db.pool.get(v.sq, v.table[i], st)
	if err != nil {
		return nil, err
	}
	return &fr.Page, nil
}

// epoch is the epoch the version became visible at.
func (v *dversion) epoch() int64 { return v.snap.VersionEpoch() }

// Name returns the sequence name.
func (s *Seq) Name() string { return s.name }

// Schema returns the record type of the stored sequence.
func (s *Seq) Schema() *seq.Schema { return s.schema }

func (s *Seq) latest() *dversion { return s.versions[len(s.versions)-1] }

// LatestEpoch returns the epoch of the newest published version.
func (s *Seq) LatestEpoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.latest().epoch()
}

// Kind returns the physical representation of the newest version.
func (s *Seq) Kind() storage.Kind {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.latest().snap.Kind()
}

// Versions returns the number of retained versions.
func (s *Seq) Versions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.versions)
}

// PageVersions returns the number of distinct page versions retained —
// the MVCC cost beyond a single copy of the data, in pages.
func (s *Seq) PageVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	distinct := make(map[*pageRef]bool)
	for _, v := range s.versions {
		for _, ref := range v.table {
			distinct[ref] = true
		}
	}
	return len(distinct)
}

// SnapshotAt returns an immutable snapshot of the newest version
// published at or before the given epoch, with fresh access counters, or
// nil when the store has no version that old.
func (s *Seq) SnapshotAt(epoch int64) *storage.Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.versions), func(i int) bool { return s.versions[i].epoch() > epoch })
	if i == 0 {
		return nil
	}
	return s.versions[i-1].snap.Pin(epoch)
}

// Latest returns a snapshot of the newest published version.
func (s *Seq) Latest() *storage.Snapshot {
	s.mu.RLock()
	cur := s.latest()
	s.mu.RUnlock()
	return cur.snap.Pin(cur.epoch())
}

// pack builds the page versions of one full sequence state: entries
// must be sorted by position, unique and non-Null. The frames are
// returned alongside the version for the caller to register with the
// pool as dirty pages. Every frame is checked to encode within the page
// size, so callers can reject oversized records before WAL-logging them.
func (s *Seq) pack(entries []seq.Entry, span seq.Span, kind storage.Kind, epoch int64) (*dversion, []*frame, error) {
	if span.IsEmpty() && len(entries) > 0 {
		span = seq.NewSpan(entries[0].Pos, entries[len(entries)-1].Pos)
	}
	var table []*pageRef
	var frames []*frame
	switch kind {
	case storage.KindSparse:
		for i := 0; i < len(entries); i += s.rpp {
			hi := min(i+s.rpp, len(entries))
			pg := entries[i:hi:hi]
			frames = append(frames, &frame{kind: kind, epoch: epoch, Page: storage.Page{First: pg[0].Pos, Entries: pg}})
			table = append(table, newRef(epoch, pg[0].Pos, len(pg)))
		}
	case storage.KindDense:
		if span.IsEmpty() {
			break
		}
		if !span.Bounded() {
			return nil, nil, fmt.Errorf("disk: dense version requires a bounded span, got %v", span)
		}
		n := span.Len()
		const maxSlots = 1 << 28
		if n > maxSlots {
			return nil, nil, fmt.Errorf("disk: dense span of %d positions too large", n)
		}
		next := 0
		for off := int64(0); off < n; off += int64(s.rpp) {
			m := min(n-off, int64(s.rpp))
			first := span.Start + off //seqvet:ignore spanarith bounded dense span
			fr := &frame{kind: kind, epoch: epoch, Page: storage.Page{First: first, Slots: make([]seq.Record, m)}}
			for next < len(entries) && entries[next].Pos < first+m { //seqvet:ignore spanarith bounded dense span
				fr.Slots[entries[next].Pos-first] = entries[next].Rec
				next++
			}
			frames = append(frames, fr)
			table = append(table, newRef(epoch, first, int(m)))
		}
	default:
		return nil, nil, fmt.Errorf("disk: unknown kind %v", kind)
	}
	for _, fr := range frames {
		if err := checkPageFits(fr, s.db.cfg.PageSize); err != nil {
			return nil, nil, err
		}
	}
	return s.newVersion(epoch, kind, span, len(entries), table), frames, nil
}

// install registers packed frames with the pool and publishes the
// version. Called with the DB's writer lock held.
func (s *Seq) install(v *dversion, frames []*frame) error {
	for i, fr := range frames {
		if err := s.db.pool.put(s, v.table[i], fr, nil); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.versions = append(s.versions, v)
	s.mu.Unlock()
	return nil
}

// pendingAppend is a fully validated append that has not been published
// yet: the new page version and the version holding it. prepareAppend
// builds it before the WAL record is written; commitAppend publishes it
// afterwards.
type pendingAppend struct {
	ref *pageRef
	fr  *frame
	v   *dversion
}

// prepareAppend validates an append — including that the resulting tail
// page encodes within the page size — and builds the not-yet-published
// page version. Nothing is mutated, so the caller can reject a bad
// append before logging it to the WAL. Called with the DB's writer lock
// held (writers are serialized).
func (s *Seq) prepareAppend(e seq.Entry, epoch int64) (*pendingAppend, error) {
	if e.Rec.IsNull() {
		return nil, fmt.Errorf("disk: cannot append a Null record")
	}
	if !e.Rec.Conforms(s.schema) {
		return nil, fmt.Errorf("disk: record %v does not conform to %v", e.Rec, s.schema)
	}
	s.mu.RLock()
	cur := s.latest()
	s.mu.RUnlock()
	if epoch <= cur.epoch() {
		return nil, fmt.Errorf("disk: append epoch %d does not advance version epoch %d", epoch, cur.epoch())
	}
	if cur.snap.Kind() != storage.KindSparse {
		return nil, fmt.Errorf("disk: version is not appendable (reorganize to sparse first)")
	}
	span := cur.snap.Info().Span
	if !span.IsEmpty() && e.Pos <= span.End {
		return nil, fmt.Errorf("disk: append position %d inside the valid range %v", e.Pos, span)
	}
	table := make([]*pageRef, len(cur.table), len(cur.table)+1)
	copy(table, cur.table)
	ents := []seq.Entry{e}
	if n := len(table); n > 0 && table[n-1].n < s.rpp {
		tail, err := s.db.pool.get(s, table[n-1], nil)
		if err != nil {
			return nil, err
		}
		ents = append(append(make([]seq.Entry, 0, len(tail.Entries)+1), tail.Entries...), e)
		table = table[:n-1]
	}
	fr := &frame{kind: storage.KindSparse, epoch: epoch, Page: storage.Page{First: ents[0].Pos, Entries: ents}}
	if err := checkPageFits(fr, s.db.cfg.PageSize); err != nil {
		return nil, err
	}
	ref := newRef(epoch, fr.First, len(ents))
	table = append(table, ref)
	if span.IsEmpty() {
		span = seq.NewSpan(e.Pos, e.Pos)
	} else {
		span.End = e.Pos
	}
	v := s.newVersion(epoch, storage.KindSparse, span, cur.snap.Count()+1, table)
	return &pendingAppend{ref: ref, fr: fr, v: v}, nil
}

// commitAppend registers the prepared page version with the pool and
// publishes it. Called with the DB's writer lock held, after the WAL
// record is durable; an error here is an I/O failure, not validation.
func (s *Seq) commitAppend(p *pendingAppend) error {
	if err := s.db.pool.put(s, p.ref, p.fr, nil); err != nil {
		return err
	}
	s.mu.Lock()
	s.versions = append(s.versions, p.v)
	s.mu.Unlock()
	return nil
}

// prepareReorganize validates a repack of the latest contents into the
// given kind — including that every packed page encodes within the page
// size — without publishing anything, so the caller can reject it
// before logging to the WAL. Called with the DB's writer lock held.
func (s *Seq) prepareReorganize(kind storage.Kind, epoch int64) (*dversion, []*frame, error) {
	s.mu.RLock()
	cur := s.latest()
	s.mu.RUnlock()
	if epoch <= cur.epoch() {
		return nil, nil, fmt.Errorf("disk: reorganize epoch %d does not advance version epoch %d", epoch, cur.epoch())
	}
	entries, err := seq.Collect(cur.snap.Scan(seq.AllSpan))
	if err != nil {
		return nil, nil, err
	}
	return s.pack(entries, cur.snap.Info().Span, kind, epoch)
}

// reorganizeLocked repacks the latest contents into the given kind and
// publishes the result at epoch — the replay path, where the WAL record
// already exists. Called with the DB's writer lock held.
func (s *Seq) reorganizeLocked(kind storage.Kind, epoch int64) error {
	v, frames, err := s.prepareReorganize(kind, epoch)
	if err != nil {
		return err
	}
	return s.install(v, frames)
}

// GC drops this sequence's versions superseded at or before minLive and
// frees the disk slots of unreachable page versions, returning the
// number of versions dropped. It takes the database writer lock — the
// per-sequence entry point the server's GC loop uses; DB.GC does the
// same for every sequence under one lock acquisition.
func (s *Seq) GC(minLive int64) int {
	s.db.wmu.Lock()
	defer s.db.wmu.Unlock()
	versions, _ := s.gcLocked(minLive)
	return versions
}

// gcLocked drops every version superseded at or before minLive and
// frees the disk slots of page versions no surviving version references.
// Called with the DB's writer lock held. It returns versions dropped and
// disk page slots freed.
func (s *Seq) gcLocked(minLive int64) (versions, pages int) {
	s.mu.Lock()
	i := sort.Search(len(s.versions), func(i int) bool { return s.versions[i].epoch() > minLive })
	if i <= 1 {
		s.mu.Unlock()
		return 0, 0
	}
	dropped := s.versions[:i-1]
	keep := s.versions[i-1:]
	s.versions = append(make([]*dversion, 0, len(keep)), keep...)
	live := make(map[*pageRef]bool)
	for _, v := range s.versions {
		for _, ref := range v.table {
			live[ref] = true
		}
	}
	s.mu.Unlock()
	freed := 0
	seen := make(map[*pageRef]bool)
	for _, v := range dropped {
		for _, ref := range v.table {
			if live[ref] || seen[ref] {
				continue
			}
			seen[ref] = true
			// A ref captured by the in-flight checkpoint must stay
			// resident until its flush completes; forget it when the
			// checkpoint ends instead.
			if s.db.cpPins[ref] {
				s.db.cpDeferred = append(s.db.cpDeferred, deferredForget{file: s.file, ref: ref, free: true})
				continue
			}
			if phys := s.db.pool.forget(ref); phys >= 0 {
				s.file.freeSlot(phys)
				freed++
			}
		}
	}
	return len(dropped), freed
}

// dropAllPages forgets every resident frame and quarantines every
// allocated slot — the sequence-drop path. Called with the DB's writer
// lock held.
func (s *Seq) dropAllPages() {
	s.mu.Lock()
	versions := s.versions
	s.versions = nil
	s.mu.Unlock()
	seen := make(map[*pageRef]bool)
	for _, v := range versions {
		for _, ref := range v.table {
			if seen[ref] {
				continue
			}
			seen[ref] = true
			// Refs captured by an in-flight checkpoint stay resident
			// until its flush completes (see finishCheckpoint).
			if s.db.cpPins[ref] {
				s.db.cpDeferred = append(s.db.cpDeferred, deferredForget{file: s.file, ref: ref})
				continue
			}
			s.db.pool.forget(ref)
		}
	}
}
