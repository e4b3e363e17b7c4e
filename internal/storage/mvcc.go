package storage

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/seq"
)

// Versioned is a multi-version base-sequence store: the only in-memory
// store, and the MVCC substrate of the seqd server. The store's contents
// are held in immutable pages; every mutation (Append, Reorganize)
// publishes a new *version* — a fresh page-pointer slice sharing every
// untouched page with its predecessor (copy-on-write at page
// granularity) — tagged with the epoch at which it becomes visible.
// Readers obtain an immutable Snapshot pinned at their epoch and evaluate
// against it while writers proceed; a snapshot never observes a
// concurrent write.
//
// An Append copies at most one page (the tail page it extends), so the
// memory cost of K retained epochs is O(K) extra pages, not O(K) copies
// of the sequence. GC reclaims versions older than every live reader
// (EpochTracker.MinLive).
//
// mu is a leaf in the declared lock order: version-list manipulation
// under it is pure slice/page work (packVersion, spliceSparse,
// collectEntries) with no calls into locked code.
//
//seqvet:lockorder leaf storage.Versioned.mu
type Versioned struct {
	schema *seq.Schema
	rpp    int

	mu       sync.RWMutex
	versions []*version // ascending by epoch; versions[len-1] is latest
}

// version is one immutable published state of a Versioned store.
type version struct {
	epoch int64
	kind  Kind
	span  seq.Span
	pages []*vpage
	count int // non-Null records
}

// vpage is an immutable page. Sparse-kind versions use entries (sorted;
// every page but the last holds exactly rpp, so entry i lives in page
// i/rpp); dense-kind versions use slots (rpp positional slots, nil =
// Null, the last page cut to the span).
type vpage struct {
	first   seq.Pos // position of entries[0] (sparse) / of slots[0] (dense)
	entries []seq.Entry
	slots   []seq.Record
}

// NewVersioned builds a versioned store from materialized data, published
// at the given epoch. recordsPerPage <= 0 selects DefaultRecordsPerPage.
func NewVersioned(data *seq.Materialized, kind Kind, recordsPerPage int, epoch int64) (*Versioned, error) {
	if data == nil {
		return nil, fmt.Errorf("storage: nil data")
	}
	if recordsPerPage <= 0 {
		recordsPerPage = DefaultRecordsPerPage
	}
	v := &Versioned{schema: data.Info().Schema, rpp: recordsPerPage}
	ver, err := packVersion(data.Entries(), data.Info().Span, kind, recordsPerPage, epoch)
	if err != nil {
		return nil, err
	}
	v.versions = []*version{ver}
	return v, nil
}

// packVersion builds the immutable page set of one version. Entries must
// be sorted by position, unique and non-Null (a Materialized guarantees
// this; Reorganize passes a snapshot's own entries).
func packVersion(entries []seq.Entry, span seq.Span, kind Kind, rpp int, epoch int64) (*version, error) {
	if span.IsEmpty() && len(entries) > 0 {
		span = seq.NewSpan(entries[0].Pos, entries[len(entries)-1].Pos)
	}
	ver := &version{epoch: epoch, kind: kind, span: span, count: len(entries)}
	switch kind {
	case KindSparse:
		ver.pages = packSparse(nil, entries, rpp)
	case KindDense:
		if span.IsEmpty() {
			break
		}
		if !span.Bounded() {
			return nil, fmt.Errorf("storage: dense version requires a bounded span, got %v", span)
		}
		n := span.Len()
		const maxSlots = 1 << 28
		if n > maxSlots {
			return nil, fmt.Errorf("storage: dense span of %d positions too large", n)
		}
		next := 0
		for off := int64(0); off < n; off += int64(rpp) {
			m := n - off
			if m > int64(rpp) {
				m = int64(rpp)
			}
			// Dense spans are bounded at construction, so offset
			// arithmetic stays representable.
			first := span.Start + off //seqvet:ignore spanarith bounded dense span
			pg := &vpage{first: first, slots: make([]seq.Record, m)}
			for next < len(entries) && entries[next].Pos < first+m { //seqvet:ignore spanarith bounded dense span
				pg.slots[entries[next].Pos-first] = entries[next].Rec
				next++
			}
			ver.pages = append(ver.pages, pg)
		}
	default:
		return nil, fmt.Errorf("storage: unknown kind %v", kind)
	}
	return ver, nil
}

// packSparse appends entries to pages as sparse pages of rpp entries
// each, the last one possibly short. The pages alias entries.
func packSparse(pages []*vpage, entries []seq.Entry, rpp int) []*vpage {
	for i := 0; i < len(entries); i += rpp {
		hi := min(i+rpp, len(entries))
		pages = append(pages, &vpage{first: entries[i].Pos, entries: entries[i:hi:hi]})
	}
	return pages
}

func (v *Versioned) latest() *version {
	return v.versions[len(v.versions)-1]
}

// LatestEpoch returns the epoch of the newest published version — the
// last write this store has seen. The server's materialize path uses it
// to detect write conflicts between snapshot and registration.
func (v *Versioned) LatestEpoch() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.latest().epoch
}

// Schema returns the record type of the stored sequence.
func (v *Versioned) Schema() *seq.Schema { return v.schema }

// Kind returns the physical representation of the newest version.
func (v *Versioned) Kind() Kind {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.latest().kind
}

// Append publishes a new version holding the latest contents plus the
// appended entry, visible from the given epoch on. Only sparse-kind
// versions are appendable (the same rule as the single-session library);
// the position must lie beyond the current valid range. A short tail
// page is copied (copy-on-write); every other page is shared with the
// previous version.
func (v *Versioned) Append(e seq.Entry, epoch int64) error {
	if e.Rec.IsNull() {
		return fmt.Errorf("storage: cannot append a Null record")
	}
	if !e.Rec.Conforms(v.schema) {
		return fmt.Errorf("storage: record %v does not conform to %v", e.Rec, v.schema)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.latest()
	if epoch <= cur.epoch {
		return fmt.Errorf("storage: append epoch %d does not advance version epoch %d", epoch, cur.epoch)
	}
	if cur.kind != KindSparse {
		return fmt.Errorf("storage: version is not appendable (reorganize to sparse first)")
	}
	if !cur.span.IsEmpty() && e.Pos <= cur.span.End {
		return fmt.Errorf("storage: append position %d inside the valid range %v", e.Pos, cur.span)
	}
	pages := spliceSparse(cur.pages, v.rpp, seq.NewSpan(e.Pos, e.Pos), []seq.Entry{e})
	span := cur.span
	if span.IsEmpty() {
		span = seq.NewSpan(e.Pos, e.Pos)
	} else {
		span.End = e.Pos
	}
	v.versions = append(v.versions, &version{
		epoch: epoch, kind: KindSparse, span: span, pages: pages, count: cur.count + 1,
	})
	return nil
}

// Reorganize publishes a new version repacking the latest contents into
// the given physical representation, visible from the given epoch on.
// Snapshots pinned at earlier epochs keep reading the old layout.
func (v *Versioned) Reorganize(kind Kind, epoch int64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.latest()
	if epoch <= cur.epoch {
		return fmt.Errorf("storage: reorganize epoch %d does not advance version epoch %d", epoch, cur.epoch)
	}
	entries := collectEntries(cur)
	ver, err := packVersion(entries, cur.span, kind, v.rpp, epoch)
	if err != nil {
		return err
	}
	v.versions = append(v.versions, ver)
	return nil
}

// collectEntries flattens a version's pages into sorted entries.
func collectEntries(ver *version) []seq.Entry {
	out := make([]seq.Entry, 0, ver.count)
	for _, pg := range ver.pages {
		if pg.entries != nil {
			out = append(out, pg.entries...)
			continue
		}
		for i, r := range pg.slots {
			if r != nil {
				out = append(out, seq.Entry{Pos: pg.first + seq.Pos(i), Rec: r}) //seqvet:ignore spanarith bounded dense span
			}
		}
	}
	return out
}

// SnapshotAt returns an immutable snapshot of the newest version
// published at or before the given epoch, with fresh access counters.
// It returns nil when the store has no version that old.
func (v *Versioned) SnapshotAt(epoch int64) *Snapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	i := sort.Search(len(v.versions), func(i int) bool { return v.versions[i].epoch > epoch })
	if i == 0 {
		return nil
	}
	return &Snapshot{at: epoch, v: v.versions[i-1], rpp: v.rpp, schema: v.schema, stats: &Stats{}}
}

// Latest returns a snapshot of the newest published version.
func (v *Versioned) Latest() *Snapshot {
	v.mu.RLock()
	cur := v.latest()
	v.mu.RUnlock()
	return &Snapshot{at: cur.epoch, v: cur, rpp: v.rpp, schema: v.schema, stats: &Stats{}}
}

// Versions returns the number of retained versions.
func (v *Versioned) Versions() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.versions)
}

// PageVersions returns the number of distinct page versions retained —
// the MVCC memory cost beyond a single copy of the data, in pages.
func (v *Versioned) PageVersions() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	distinct := make(map[*vpage]bool)
	for _, ver := range v.versions {
		for _, pg := range ver.pages {
			distinct[pg] = true
		}
	}
	return len(distinct)
}

// GC drops every version superseded at or before minLive: the newest
// version with epoch ≤ minLive must stay (a reader pinned at minLive
// reads it), everything older is unreachable. It returns the number of
// versions dropped.
func (v *Versioned) GC(minLive int64) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	i := sort.Search(len(v.versions), func(i int) bool { return v.versions[i].epoch > minLive })
	if i <= 1 {
		return 0
	}
	keep := v.versions[i-1:]
	dropped := i - 1
	v.versions = append(make([]*version, 0, len(keep)), keep...)
	return dropped
}

// Snapshot is an immutable view of one version of a Versioned store,
// pinned at a reader epoch. It implements Store, so the optimizer and
// executor treat it exactly like a base store; its counters are private
// to the snapshot (per-reader attribution).
type Snapshot struct {
	at     int64 // the reader epoch the snapshot was pinned at
	v      *version
	rpp    int
	schema *seq.Schema
	stats  *Stats
}

// SnapshotEpoch returns the reader epoch the snapshot is pinned at. The
// planlint snapshot/* invariants use it to check that a reader plan
// never mixes page versions across epochs.
func (s *Snapshot) SnapshotEpoch() int64 { return s.at }

// VersionEpoch returns the epoch of the underlying store version (the
// last write visible in this snapshot); always ≤ SnapshotEpoch.
func (s *Snapshot) VersionEpoch() int64 { return s.v.epoch }

// Kind returns the snapshot's physical representation.
func (s *Snapshot) Kind() Kind { return s.v.kind }

// Count returns the number of non-Null records.
func (s *Snapshot) Count() int { return s.v.count }

// Info implements seq.Sequence.
func (s *Snapshot) Info() seq.Info {
	den := 0.0
	if n := s.v.span.Len(); n > 0 && s.v.span.Bounded() {
		den = float64(s.v.count) / float64(n)
	}
	return seq.Info{Schema: s.schema, Span: s.v.span, Density: den}
}

// Stats implements Store.
func (s *Snapshot) Stats() *Stats { return s.stats }

// probeDepth is the page touches charged per probed descent of the
// sparse page index: the height of a binary search over the pages, at
// least 1 when any page exists.
func (s *Snapshot) probeDepth() int64 {
	n := int64(len(s.v.pages))
	if n <= 1 {
		return n
	}
	return int64(bits.Len64(uint64(n - 1))) // ceil(log2(n))
}

// AccessCosts implements Store: a full scan touches every page (empty
// dense slots still occupy space); a dense probe touches exactly one
// page, a sparse probe descends the index.
func (s *Snapshot) AccessCosts() AccessCosts {
	d := int64(1)
	if s.v.kind == KindSparse {
		d = max(s.probeDepth(), 1)
	}
	return AccessCosts{StreamPages: int64(len(s.v.pages)), ProbePages: d, RecordsPerPage: s.rpp}
}

// densePage returns the index of the dense page holding pos, which must
// lie inside the version's (bounded) span.
func (s *Snapshot) densePage(pos seq.Pos) int {
	return int((pos - s.v.span.Start) / int64(s.rpp)) //seqvet:ignore spanarith bounded dense span
}

// Probe implements seq.Sequence. A position outside the valid range
// answers Null without touching a page.
func (s *Snapshot) Probe(pos seq.Pos) (seq.Record, error) {
	s.stats.ProbeRecords.Add(1)
	if !s.v.span.Contains(pos) || len(s.v.pages) == 0 {
		return nil, nil
	}
	if s.v.kind == KindDense {
		s.stats.RandPages.Add(1)
		pg := s.v.pages[s.densePage(pos)]
		return pg.slots[pos-pg.first], nil
	}
	s.stats.RandPages.Add(s.probeDepth())
	pi := sort.Search(len(s.v.pages), func(i int) bool { return s.v.pages[i].first > pos }) - 1
	if pi < 0 {
		return nil, nil
	}
	ents := s.v.pages[pi].entries
	j := sort.Search(len(ents), func(i int) bool { return ents[i].Pos >= pos })
	if j < len(ents) && ents[j].Pos == pos {
		return ents[j].Rec, nil
	}
	return nil, nil
}

// seek positions a sparse scan at the first entry at or after start
// (page index, entry index within it). Entering the middle of the file
// requires an index descent, charged like a probe.
func (s *Snapshot) seek(start seq.Pos) (pi, j int) {
	pi = max(sort.Search(len(s.v.pages), func(i int) bool { return s.v.pages[i].first > start })-1, 0)
	ents := s.v.pages[pi].entries
	j = sort.Search(len(ents), func(i int) bool { return ents[i].Pos >= start })
	if pi > 0 || j > 0 {
		s.stats.RandPages.Add(s.probeDepth())
	}
	return pi, j
}

// Scan implements seq.Sequence: sequential page touches over the
// intersection of the requested span with the version's valid range.
func (s *Snapshot) Scan(span seq.Span) seq.Cursor {
	span = span.Intersect(s.v.span)
	if span.IsEmpty() || len(s.v.pages) == 0 {
		return emptyCursor{}
	}
	if s.v.kind == KindDense {
		return &denseCursor{s: s, pos: span.Start, end: span.End, page: -1}
	}
	pi, j := s.seek(span.Start)
	return &sparseCursor{s: s, pi: pi, j: j, end: span.End, page: -1}
}

type emptyCursor struct{}

func (emptyCursor) Next() (seq.Pos, seq.Record, bool) { return 0, nil, false }
func (emptyCursor) Err() error                        { return nil }
func (emptyCursor) Close() error                      { return nil }

type sparseCursor struct {
	s    *Snapshot
	pi   int // current page index
	j    int // next entry index within page pi
	end  seq.Pos
	page int // last page charged; -1 before the first touch
}

func (c *sparseCursor) Next() (seq.Pos, seq.Record, bool) {
	for c.pi < len(c.s.v.pages) {
		pg := c.s.v.pages[c.pi]
		if c.j >= len(pg.entries) {
			c.pi++
			c.j = 0
			continue
		}
		e := pg.entries[c.j]
		if e.Pos > c.end {
			return 0, nil, false
		}
		if c.pi != c.page {
			c.page = c.pi
			c.s.stats.SeqPages.Add(1)
		}
		c.j++
		c.s.stats.SeqRecords.Add(1)
		return e.Pos, e.Rec, true
	}
	return 0, nil, false
}

func (c *sparseCursor) Err() error   { return nil }
func (c *sparseCursor) Close() error { return nil }

type denseCursor struct {
	s    *Snapshot
	pos  seq.Pos
	end  seq.Pos
	page int // last page charged; -1 before the first touch
}

func (c *denseCursor) Next() (seq.Pos, seq.Record, bool) {
	for c.pos <= c.end {
		p := c.pos
		c.pos++
		// Charge each page the first time the scan enters it, whether or
		// not it holds any non-Null record: empty slots still occupy
		// space in a dense layout.
		pi := c.s.densePage(p)
		if pi != c.page {
			c.page = pi
			c.s.stats.SeqPages.Add(1)
		}
		pg := c.s.v.pages[pi]
		if r := pg.slots[p-pg.first]; r != nil {
			c.s.stats.SeqRecords.Add(1)
			return p, r, true
		}
	}
	return 0, nil, false
}

func (c *denseCursor) Err() error   { return nil }
func (c *denseCursor) Close() error { return nil }
