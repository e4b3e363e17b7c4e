package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seq"
	"repro/internal/storage"
)

// Config tunes a DB. The zero value is safe and durable: default page
// size, default pool, fsync on every append, background checkpointing.
type Config struct {
	// PageSize is the page size in bytes (default DefaultPageSize). An
	// existing database's page size wins over the configured one.
	PageSize int
	// RecordsPerPage is the per-page record capacity for new sequences
	// (default storage.DefaultRecordsPerPage).
	RecordsPerPage int
	// PoolPages is the buffer-pool capacity in frames (default 1024 —
	// 8 MiB of 8 KiB pages).
	PoolPages int
	// BatchFsync enables group commit: appends return after the WAL
	// write, and a flusher goroutine fsyncs every FsyncInterval,
	// bounding the durability window instead of paying one fsync per
	// append. Off by default: every append is durable on return.
	BatchFsync bool
	// FsyncInterval is the group-commit window (default 2ms); only used
	// with BatchFsync.
	FsyncInterval time.Duration
	// CheckpointInterval is how often the background checkpointer runs
	// when WAL bytes exist (default 15s). Negative disables background
	// checkpointing (Checkpoint can still be called directly).
	CheckpointInterval time.Duration
	// CheckpointBytes is the WAL size that triggers an early checkpoint
	// (default 4 MiB).
	CheckpointBytes int64
	// Hook is the test-only failure-injection point; nil in production.
	Hook Hook
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = DefaultPageSize
	}
	if c.RecordsPerPage <= 0 {
		c.RecordsPerPage = storage.DefaultRecordsPerPage
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 1024
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 2 * time.Millisecond
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 15 * time.Second
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = 4 << 20
	}
	return c
}

// DB is one durable database directory: a catalog, per-sequence page
// files, a WAL, and the buffer pool in front of them. All mutations are
// serialized by the writer lock and follow write-ahead discipline — the
// WAL record is durable (or queued for the group-commit fsync) before
// the in-memory state changes; pages reach their files lazily, via
// eviction writebacks and checkpoints. Reads are epoch-pinned snapshots
// and run concurrently with writers, exactly like the memory-backed
// Versioned store.
//
// Once a durability-relevant I/O fails, the DB is failed: every
// subsequent mutation and checkpoint errors, reads keep serving from
// memory, and the directory reopens cleanly via WAL recovery — the same
// contract a crashed process gets.
//
// Lock order (cpMu serializes checkpoints and is taken first; wmu
// serializes writers; mu guards the name maps for readers):
//
//seqvet:lockorder disk.DB.cpMu < disk.DB.wmu
//seqvet:lockorder disk.DB.cpMu < disk.pool.mu
//seqvet:lockorder disk.DB.cpMu < disk.pageFile.mu
//seqvet:lockorder disk.DB.cpMu < disk.wal.mu
//seqvet:lockorder disk.DB.wmu < disk.DB.mu
//seqvet:lockorder disk.DB.wmu < disk.Seq.mu
//seqvet:lockorder disk.DB.wmu < disk.pool.mu
//seqvet:lockorder disk.DB.wmu < disk.pageFile.mu
//seqvet:lockorder disk.DB.wmu < disk.wal.mu
//seqvet:lockorder disk.DB.mu < disk.Seq.mu
//seqvet:lockorder disk.DB.mu < disk.pageFile.mu
type DB struct {
	dir  string
	cfg  Config
	pool *pool

	wmu      sync.Mutex // writer lock: serializes every mutation
	epoch    atomic.Int64
	nextFile uint32
	walSeq   uint64
	w        *wal
	closed   bool
	dropped  []*pageFile // files of dropped sequences, removed at checkpoint

	// Checkpoint pinning (guarded by wmu): while a checkpoint is in
	// flight, every ref in its captured version tables is pinned, and
	// drop/GC must defer forgetting a pinned ref until the checkpoint
	// ends — a forget would otherwise make the flush of a captured dirty
	// page fail and poison the DB.
	cpPins     map[*pageRef]bool
	cpDeferred []deferredForget

	mu    sync.RWMutex // guards the maps for concurrent readers
	seqs  map[string]*Seq
	byID  map[uint32]*Seq
	views map[string]*View

	cpMu   sync.Mutex // serializes checkpoints
	failed atomic.Bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// Open opens (or creates) a database directory, running crash recovery:
// load the last checkpoint's catalog, replay every WAL segment at or
// after it — discarding torn tails by CRC — and start a fresh segment.
func Open(dir string, cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	if cfg.PageSize < minPageSize {
		return nil, fmt.Errorf("disk: page size %d below minimum %d", cfg.PageSize, minPageSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cat, err := readCatalog(dir)
	if err != nil {
		return nil, err
	}
	if cat != nil && cat.pageSize != cfg.PageSize {
		cfg.PageSize = cat.pageSize
	}
	db := &DB{
		dir:   dir,
		cfg:   cfg,
		pool:  newPool(cfg.PoolPages),
		seqs:  make(map[string]*Seq),
		byID:  make(map[uint32]*Seq),
		views: make(map[string]*View),
		quit:  make(chan struct{}),
	}
	catWALSeq := uint64(1)
	if cat != nil {
		catWALSeq = cat.walSeq
		db.epoch.Store(cat.epoch)
		db.nextFile = cat.nextFile
		for i := range cat.seqs {
			if err := db.loadSeq(&cat.seqs[i]); err != nil {
				db.releaseFiles()
				return nil, err
			}
		}
		for _, v := range cat.views {
			db.views[v.Name] = v
		}
	}
	segs, err := listWALSegments(dir)
	if err != nil {
		db.releaseFiles()
		return nil, err
	}
	rs := &replayState{pendingSeq: make(map[uint32]*pendingCreate)}
	maxSeg := catWALSeq - 1
	for _, n := range segs {
		if n < catWALSeq {
			continue
		}
		if n > maxSeg {
			maxSeg = n
		}
		_, err := replayWAL(filepath.Join(dir, walName(n)), func(payload []byte) error {
			return db.applyWAL(payload, rs)
		})
		if err != nil {
			db.releaseFiles()
			return nil, err
		}
	}
	db.walSeq = maxSeg + 1
	db.w, err = createWAL(dir, db.walSeq, cfg.Hook)
	if err != nil {
		db.releaseFiles()
		return nil, err
	}
	db.sweepOrphans(catWALSeq, segs)
	if cfg.BatchFsync {
		db.wg.Add(1)
		go db.flusher()
	}
	if cfg.CheckpointInterval > 0 {
		db.wg.Add(1)
		go db.checkpointer()
	}
	return db, nil
}

// loadSeq reconstructs one sequence from its catalog entry, deriving the
// page file's allocation state from the file length and the referenced
// slots (slots the catalog does not reference are free, which also
// reclaims slots leaked by writebacks racing a failed checkpoint).
func (db *DB) loadSeq(cs *catSeq) error {
	path := filepath.Join(db.dir, seqFileName(cs.fileID))
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("disk: sequence %q: %w", cs.name, err)
	}
	nextPhys := st.Size()/int64(db.cfg.PageSize) - 1
	if nextPhys < 0 {
		nextPhys = 0
	}
	used := make(map[int64]bool, len(cs.table))
	table := make([]*pageRef, len(cs.table))
	for i, cr := range cs.table {
		if cr.phys >= nextPhys {
			return fmt.Errorf("disk: sequence %q references page %d beyond file end %d", cs.name, cr.phys, nextPhys)
		}
		used[cr.phys] = true
		ref := newRef(cr.epoch, cr.first, cr.n)
		ref.phys.Store(cr.phys)
		table[i] = ref
	}
	var free []int64
	for p := int64(0); p < nextPhys; p++ {
		if !used[p] {
			free = append(free, p)
		}
	}
	file, err := openPageFile(path, db.cfg.PageSize, nextPhys, free, db.cfg.Hook)
	if err != nil {
		return err
	}
	s := &Seq{name: cs.name, fileID: cs.fileID, schema: cs.schema, rpp: cs.rpp, file: file, db: db}
	s.versions = []*dversion{s.newVersion(cs.epoch, cs.kind, cs.span, cs.count, table)}
	db.seqs[cs.name] = s
	db.byID[cs.fileID] = s
	if cs.fileID >= db.nextFile {
		db.nextFile = cs.fileID + 1
	}
	return nil
}

// sweepOrphans removes files recovery proved unreferenced: WAL segments
// before the catalog's replay point, page files the catalog has never
// heard of (crash leftovers of checkpoint-removed drops), and a leftover
// catalog temp file. Files of sequences whose drop was replayed from the
// WAL are NOT swept — the on-disk catalog still references them, and
// deleting them before a new catalog lands would make the next recovery
// fail in loadSeq; they sit in db.dropped until a checkpoint publishes a
// catalog without them.
func (db *DB) sweepOrphans(catWALSeq uint64, segs []uint64) {
	for _, n := range segs {
		if n < catWALSeq {
			os.Remove(filepath.Join(db.dir, walName(n)))
		}
	}
	os.Remove(filepath.Join(db.dir, catalogName+".tmp"))
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return
	}
	live := make(map[string]bool, len(db.seqs)+len(db.dropped))
	for _, s := range db.seqs {
		live[seqFileName(s.fileID)] = true
	}
	for _, f := range db.dropped {
		live[filepath.Base(f.path)] = true
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "s") && strings.HasSuffix(name, ".spf") && !live[name] {
			os.Remove(filepath.Join(db.dir, name))
		}
	}
}

func (db *DB) releaseFiles() {
	for _, s := range db.seqs {
		s.file.close()
	}
	for _, f := range db.dropped {
		f.close()
	}
	db.dropped = nil
}

func seqFileName(fileID uint32) string { return fmt.Sprintf("s%06d.spf", fileID) }

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// Epoch returns the current epoch — the last write's epoch.
func (db *DB) Epoch() int64 { return db.epoch.Load() }

// PageSize returns the (possibly catalog-inherited) page size.
func (db *DB) PageSize() int { return db.cfg.PageSize }

// Pool returns the buffer pool's aggregate traffic counters.
func (db *DB) Pool() PoolCounters { return db.pool.counters() }

// PoolResident returns the number of frames resident in the pool.
func (db *DB) PoolResident() int { return db.pool.resident() }

// WALBytes returns the size of the current WAL segment.
func (db *DB) WALBytes() int64 { return db.w.bytes() }

// DropCaches evicts every clean frame from the buffer pool — the
// cold-cache lever for benchmarks. Checkpoint first for a fully cold
// pool (dirty frames cannot be dropped).
func (db *DB) DropCaches() { db.pool.dropClean() }

// Seq returns the named sequence.
func (db *DB) Seq(name string) (*Seq, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.seqs[name]
	return s, ok
}

// Names returns the sequence names, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.seqs))
	for n := range db.seqs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Views returns the persisted views, sorted by name.
func (db *DB) Views() []*View {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*View, 0, len(db.views))
	for _, v := range db.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ── background goroutines ───────────────────────────────────────────

// flusher is the group-commit fsync loop: it makes buffered WAL records
// durable every FsyncInterval, bounding the data-loss window BatchFsync
// trades for append latency.
func (db *DB) flusher() {
	defer db.wg.Done()
	t := time.NewTicker(db.cfg.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-db.quit:
			return
		case <-t.C:
			if db.failed.Load() || !db.w.needsSync() {
				continue
			}
			if err := db.w.sync(); err != nil {
				db.failed.Store(true)
			}
		}
	}
}

// checkpointer triggers checkpoints when the WAL exceeds
// CheckpointBytes, and at least every CheckpointInterval while WAL
// bytes exist.
func (db *DB) checkpointer() {
	defer db.wg.Done()
	tick := time.Second
	if db.cfg.CheckpointInterval < tick {
		tick = db.cfg.CheckpointInterval
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var since time.Duration
	for {
		select {
		case <-db.quit:
			return
		case <-t.C:
			since += tick
			if db.failed.Load() {
				continue
			}
			n := db.w.bytes()
			if n >= db.cfg.CheckpointBytes || (n > 0 && since >= db.cfg.CheckpointInterval) {
				since = 0
				db.Checkpoint()
			}
		}
	}
}

// Close stops the background goroutines, takes a final checkpoint (on a
// healthy DB), and closes every file.
func (db *DB) Close() error {
	db.wmu.Lock()
	if db.closed {
		db.wmu.Unlock()
		return nil
	}
	db.closed = true
	db.wmu.Unlock()
	close(db.quit)
	db.wg.Wait()
	var err error
	if !db.failed.Load() {
		err = db.Checkpoint()
	}
	if werr := db.w.close(); err == nil && werr != nil && !db.failed.Load() {
		err = werr
	}
	db.mu.Lock()
	for _, s := range db.seqs {
		s.file.close()
	}
	db.mu.Unlock()
	db.wmu.Lock()
	for _, f := range db.dropped {
		f.close()
	}
	db.dropped = nil
	db.wmu.Unlock()
	return err
}

// ── WAL record codec and apply ──────────────────────────────────────

type createMeta struct {
	name   string
	fileID uint32
	kind   storage.Kind
	rpp    int
	schema *seq.Schema
	span   seq.Span
	epoch  int64
}

type pendingCreate struct {
	meta    createMeta
	entries []seq.Entry
}

type replayState struct {
	pendingSeq  map[uint32]*pendingCreate
	pendingView *View
}

func encCreate(m createMeta) []byte {
	w := &writer{}
	w.byte(walCreate)
	w.string(m.name)
	w.uvarint(uint64(m.fileID))
	w.byte(byte(m.kind))
	w.uvarint(uint64(m.rpp))
	w.schema(m.schema)
	w.span(m.span)
	w.varint(m.epoch)
	return w.buf
}

func encBulk(t byte, fileID uint32, name string, ents []seq.Entry) []byte {
	w := &writer{}
	w.byte(t)
	if t == walBulk {
		w.uvarint(uint64(fileID))
	} else {
		w.string(name)
	}
	w.entries(ents)
	return w.buf
}

func encCommitSeq(fileID uint32) []byte {
	w := &writer{}
	w.byte(walCommitSeq)
	w.uvarint(uint64(fileID))
	return w.buf
}

func encAppend(fileID uint32, epoch int64, e seq.Entry) []byte {
	w := &writer{}
	w.byte(walAppend)
	w.uvarint(uint64(fileID))
	w.varint(epoch)
	w.varint(e.Pos)
	w.record(e.Rec)
	return w.buf
}

func encReorg(fileID uint32, epoch int64, kind storage.Kind) []byte {
	w := &writer{}
	w.byte(walReorg)
	w.uvarint(uint64(fileID))
	w.varint(epoch)
	w.byte(byte(kind))
	return w.buf
}

func encDrop(fileID uint32, epoch int64) []byte {
	w := &writer{}
	w.byte(walDrop)
	w.uvarint(uint64(fileID))
	w.varint(epoch)
	return w.buf
}

func encPutView(v *View) []byte {
	w := &writer{}
	w.byte(walPutView)
	w.string(v.Name)
	w.varint(v.Epoch)
	w.string(v.SEQL)
	w.span(v.Span)
	w.uvarint(uint64(len(v.Bases)))
	for _, b := range v.Bases {
		w.string(b)
	}
	return w.buf
}

func encCommitView(name string) []byte {
	w := &writer{}
	w.byte(walCommitView)
	w.string(name)
	return w.buf
}

func encDropView(name string, epoch int64) []byte {
	w := &writer{}
	w.byte(walDropView)
	w.string(name)
	w.varint(epoch)
	return w.buf
}

// applyWAL applies one replayed record. Application is idempotent under
// the epoch checks: a record whose epoch does not advance the target's
// version epoch was already captured by the checkpoint replay started
// from.
func (db *DB) applyWAL(payload []byte, rs *replayState) error {
	r := &reader{buf: payload}
	typ := r.byte()
	switch typ {
	case walCreate:
		m := createMeta{}
		m.name = r.string()
		m.fileID = uint32(r.uvarint())
		m.kind = storage.Kind(r.byte())
		m.rpp = int(r.uvarint())
		m.schema = r.schema()
		m.span = r.span()
		m.epoch = r.varint()
		if r.err != nil {
			return r.err
		}
		if m.kind != storage.KindDense && m.kind != storage.KindSparse {
			return fmt.Errorf("disk: create with unknown kind %d", int(m.kind))
		}
		rs.pendingSeq[m.fileID] = &pendingCreate{meta: m}
	case walBulk:
		fileID := uint32(r.uvarint())
		ents := r.entriesRun(1 << 26)
		if r.err != nil {
			return r.err
		}
		pc, ok := rs.pendingSeq[fileID]
		if !ok {
			return fmt.Errorf("disk: bulk record for unknown pending create %d", fileID)
		}
		pc.entries = append(pc.entries, ents...)
	case walCommitSeq:
		fileID := uint32(r.uvarint())
		if r.err != nil {
			return r.err
		}
		pc, ok := rs.pendingSeq[fileID]
		if !ok {
			return fmt.Errorf("disk: commit for unknown pending create %d", fileID)
		}
		delete(rs.pendingSeq, fileID)
		if err := db.applyCreate(pc.meta, pc.entries); err != nil {
			return err
		}
	case walAppend:
		fileID := uint32(r.uvarint())
		epoch := r.varint()
		pos := r.varint()
		rec := r.record()
		if r.err != nil {
			return r.err
		}
		s, ok := db.byID[fileID]
		if !ok {
			return fmt.Errorf("disk: append to unknown sequence %d", fileID)
		}
		if epoch <= s.LatestEpoch() {
			return nil // captured by the checkpoint already
		}
		p, err := s.prepareAppend(seq.Entry{Pos: pos, Rec: rec}, epoch)
		if err != nil {
			return err
		}
		if err := s.commitAppend(p); err != nil {
			return err
		}
		db.dropViewsReadingLocked(s.name)
		db.bumpEpoch(epoch)
	case walReorg:
		fileID := uint32(r.uvarint())
		epoch := r.varint()
		kind := storage.Kind(r.byte())
		if r.err != nil {
			return r.err
		}
		s, ok := db.byID[fileID]
		if !ok {
			return fmt.Errorf("disk: reorganize of unknown sequence %d", fileID)
		}
		if epoch <= s.LatestEpoch() {
			return nil
		}
		if err := s.reorganizeLocked(kind, epoch); err != nil {
			return err
		}
		db.bumpEpoch(epoch)
	case walDrop:
		fileID := uint32(r.uvarint())
		epoch := r.varint()
		if r.err != nil {
			return r.err
		}
		s, ok := db.byID[fileID]
		if !ok {
			return fmt.Errorf("disk: drop of unknown sequence %d", fileID)
		}
		db.applyDrop(s)
		db.bumpEpoch(epoch)
	case walPutView:
		v := &View{}
		v.Name = r.string()
		v.Epoch = r.varint()
		v.SEQL = r.string()
		v.Span = r.span()
		nb := r.count("view base", 1<<16)
		for i := 0; i < nb && r.err == nil; i++ {
			v.Bases = append(v.Bases, r.string())
		}
		if r.err != nil {
			return r.err
		}
		rs.pendingView = v
	case walViewBulk:
		name := r.string()
		ents := r.entriesRun(1 << 26)
		if r.err != nil {
			return r.err
		}
		if rs.pendingView == nil || rs.pendingView.Name != name {
			return fmt.Errorf("disk: view bulk record for unknown pending view %q", name)
		}
		rs.pendingView.Entries = append(rs.pendingView.Entries, ents...)
	case walCommitView:
		name := r.string()
		if r.err != nil {
			return r.err
		}
		if rs.pendingView == nil || rs.pendingView.Name != name {
			return fmt.Errorf("disk: commit for unknown pending view %q", name)
		}
		v := rs.pendingView
		rs.pendingView = nil
		db.views[v.Name] = v
		db.bumpEpoch(v.Epoch)
	case walDropView:
		name := r.string()
		epoch := r.varint()
		if r.err != nil {
			return r.err
		}
		delete(db.views, name)
		db.bumpEpoch(epoch)
	default:
		return fmt.Errorf("disk: unknown WAL record type %d", typ)
	}
	return nil
}

func (db *DB) bumpEpoch(epoch int64) {
	if epoch > db.epoch.Load() {
		db.epoch.Store(epoch)
	}
}

// applyCreate builds a sequence from committed create metadata: page
// file, packed frames (dirty, in the pool), version table, registration.
func (db *DB) applyCreate(m createMeta, entries []seq.Entry) error {
	if _, exists := db.seqs[m.name]; exists {
		return fmt.Errorf("disk: sequence %q already exists", m.name)
	}
	file, err := createPageFile(filepath.Join(db.dir, seqFileName(m.fileID)), db.cfg.PageSize, db.cfg.Hook)
	if err != nil {
		return err
	}
	s := &Seq{name: m.name, fileID: m.fileID, schema: m.schema, rpp: m.rpp, file: file, db: db}
	v, frames, err := s.pack(entries, m.span, m.kind, m.epoch)
	if err != nil {
		file.close()
		os.Remove(file.path)
		return err
	}
	s.versions = []*dversion{v}
	for i, fr := range frames {
		if err := db.pool.put(s, v.table[i], fr, nil); err != nil {
			file.close()
			return err
		}
	}
	db.mu.Lock()
	db.seqs[m.name] = s
	db.byID[m.fileID] = s
	db.mu.Unlock()
	if m.fileID >= db.nextFile {
		db.nextFile = m.fileID + 1
	}
	db.bumpEpoch(m.epoch)
	return nil
}

// applyDrop unregisters a sequence and parks its file for removal at the
// next checkpoint (recovery may still need it until then).
func (db *DB) applyDrop(s *Seq) {
	db.mu.Lock()
	delete(db.seqs, s.name)
	delete(db.byID, s.fileID)
	db.mu.Unlock()
	s.dropAllPages()
	db.dropped = append(db.dropped, s.file)
	db.dropViewsReadingLocked(s.name)
}

// dropViewsReadingLocked removes persisted views that read base — the
// persistence mirror of matview invalidation. Called under wmu (or
// during single-threaded replay).
func (db *DB) dropViewsReadingLocked(base string) {
	db.mu.Lock()
	for name, v := range db.views {
		for _, b := range v.Bases {
			if b == base {
				delete(db.views, name)
				break
			}
		}
	}
	db.mu.Unlock()
}

// ── mutations ───────────────────────────────────────────────────────

func (db *DB) writableLocked() error {
	if db.closed {
		return fmt.Errorf("disk: database is closed")
	}
	if db.failed.Load() {
		return fmt.Errorf("disk: database failed after an I/O error; reopen to recover")
	}
	return nil
}

// fail marks the DB failed after a durability-relevant I/O error.
func (db *DB) fail(err error) error {
	db.failed.Store(true)
	return err
}

// logGroup appends a begin/bulk/commit record group and syncs it.
func (db *DB) logGroup(payloads ...[]byte) error {
	for i, p := range payloads {
		syncNow := i == len(payloads)-1
		if err := db.w.append(p, syncNow); err != nil {
			return db.fail(err)
		}
	}
	return nil
}

// CreateSequenceAt creates a sequence from materialized data, published
// at the given epoch (which may equal the current epoch: creates are
// visible immediately, like the server's memory-backed path). The bulk
// load is WAL-logged in bounded chunks and synced once.
func (db *DB) CreateSequenceAt(name string, data *seq.Materialized, kind storage.Kind, epoch int64) error {
	if data == nil {
		return fmt.Errorf("disk: nil data")
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.writableLocked(); err != nil {
		return err
	}
	db.mu.RLock()
	_, exists := db.seqs[name]
	db.mu.RUnlock()
	if exists {
		return fmt.Errorf("disk: sequence %q already exists", name)
	}
	if kind != storage.KindDense && kind != storage.KindSparse {
		return fmt.Errorf("disk: unknown kind %v", kind)
	}
	if epoch < 0 {
		return fmt.Errorf("disk: negative epoch %d", epoch)
	}
	m := createMeta{
		name: name, fileID: db.nextFile, kind: kind, rpp: db.cfg.RecordsPerPage,
		schema: data.Info().Schema, span: data.Info().Span, epoch: epoch,
	}
	entries := data.Entries()
	// Validate the pack — including every page's encoded size — before
	// logging anything: a too-large record must fail cleanly, not poison
	// the WAL. The sequence is not registered yet; a detached Seq packs.
	detached := &Seq{schema: m.schema, rpp: m.rpp, db: db}
	if _, _, err := detached.pack(entries, m.span, kind, epoch); err != nil {
		return err
	}
	db.nextFile++
	group := [][]byte{encCreate(m)}
	for i := 0; i < len(entries); i += walBulkChunk {
		hi := i + walBulkChunk
		if hi > len(entries) {
			hi = len(entries)
		}
		group = append(group, encBulk(walBulk, m.fileID, "", entries[i:hi]))
	}
	group = append(group, encCommitSeq(m.fileID))
	if err := db.logGroup(group...); err != nil {
		return err
	}
	if err := db.applyCreate(m, entries); err != nil {
		return db.fail(err)
	}
	return nil
}

// CreateSequence creates a sequence published at the current epoch.
func (db *DB) CreateSequence(name string, data *seq.Materialized, kind storage.Kind) error {
	return db.CreateSequenceAt(name, data, kind, db.Epoch())
}

// AppendAt appends one entry, visible from the given epoch, following
// write-ahead discipline: the record is durable (or queued for the
// group-commit fsync) before the in-memory version publishes.
func (db *DB) AppendAt(name string, e seq.Entry, epoch int64) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.appendAtLocked(name, e, epoch)
}

func (db *DB) appendAtLocked(name string, e seq.Entry, epoch int64) error {
	if err := db.writableLocked(); err != nil {
		return err
	}
	db.mu.RLock()
	s, ok := db.seqs[name]
	db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("disk: unknown sequence %q", name)
	}
	p, err := s.prepareAppend(e, epoch)
	if err != nil {
		return err
	}
	if err := db.w.append(encAppend(s.fileID, epoch, e), !db.cfg.BatchFsync); err != nil {
		return db.fail(err)
	}
	if err := s.commitAppend(p); err != nil {
		return db.fail(err)
	}
	db.dropViewsReadingLocked(name)
	db.bumpEpoch(epoch)
	return nil
}

// Append appends at the next epoch — allocated under the writer lock,
// so concurrent appenders never share or spuriously skip an epoch — and
// returns it.
func (db *DB) Append(name string, e seq.Entry) (int64, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	epoch := db.Epoch() + 1
	if err := db.appendAtLocked(name, e, epoch); err != nil {
		return 0, err
	}
	return epoch, nil
}

// ReorganizeAt repacks a sequence into the given kind, visible from the
// given epoch.
func (db *DB) ReorganizeAt(name string, kind storage.Kind, epoch int64) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.reorganizeAtLocked(name, kind, epoch)
}

func (db *DB) reorganizeAtLocked(name string, kind storage.Kind, epoch int64) error {
	if err := db.writableLocked(); err != nil {
		return err
	}
	db.mu.RLock()
	s, ok := db.seqs[name]
	db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("disk: unknown sequence %q", name)
	}
	if kind != storage.KindDense && kind != storage.KindSparse {
		return fmt.Errorf("disk: unknown kind %v", kind)
	}
	// Prepare (collect, repack, size-check) before logging: an
	// unencodable repack must fail the call, not poison the WAL.
	v, frames, err := s.prepareReorganize(kind, epoch)
	if err != nil {
		return err
	}
	if err := db.w.append(encReorg(s.fileID, epoch, kind), true); err != nil {
		return db.fail(err)
	}
	if err := s.install(v, frames); err != nil {
		return db.fail(err)
	}
	db.bumpEpoch(epoch)
	return nil
}

// Reorganize repacks at the next epoch (allocated under the writer
// lock) and returns it.
func (db *DB) Reorganize(name string, kind storage.Kind) (int64, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	epoch := db.Epoch() + 1
	if err := db.reorganizeAtLocked(name, kind, epoch); err != nil {
		return 0, err
	}
	return epoch, nil
}

// DropSequenceAt removes a sequence (and the persisted views reading
// it), advancing to the given epoch.
func (db *DB) DropSequenceAt(name string, epoch int64) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.dropSequenceAtLocked(name, epoch)
}

func (db *DB) dropSequenceAtLocked(name string, epoch int64) error {
	if err := db.writableLocked(); err != nil {
		return err
	}
	db.mu.RLock()
	s, ok := db.seqs[name]
	db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("disk: unknown sequence %q", name)
	}
	if err := db.w.append(encDrop(s.fileID, epoch), true); err != nil {
		return db.fail(err)
	}
	db.applyDrop(s)
	db.bumpEpoch(epoch)
	return nil
}

// DropSequence removes a sequence at the next epoch (allocated under
// the writer lock).
func (db *DB) DropSequence(name string) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.dropSequenceAtLocked(name, db.Epoch()+1)
}

// PutViewAt persists a materialized view (overwriting any previous view
// of the same name). The view must be valid at its Epoch: the server and
// library register it in their matview registries at the same epoch.
func (db *DB) PutViewAt(v *View) error {
	if v == nil || v.Name == "" {
		return fmt.Errorf("disk: nil or unnamed view")
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.writableLocked(); err != nil {
		return err
	}
	group := [][]byte{encPutView(v)}
	for i := 0; i < len(v.Entries); i += walBulkChunk {
		hi := i + walBulkChunk
		if hi > len(v.Entries) {
			hi = len(v.Entries)
		}
		group = append(group, encBulk(walViewBulk, 0, v.Name, v.Entries[i:hi]))
	}
	group = append(group, encCommitView(v.Name))
	if err := db.logGroup(group...); err != nil {
		return err
	}
	db.mu.Lock()
	db.views[v.Name] = v
	db.mu.Unlock()
	db.bumpEpoch(v.Epoch)
	return nil
}

// DropViewAt removes a persisted view.
func (db *DB) DropViewAt(name string, epoch int64) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.writableLocked(); err != nil {
		return err
	}
	db.mu.RLock()
	_, ok := db.views[name]
	db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("disk: unknown view %q", name)
	}
	if err := db.w.append(encDropView(name, epoch), true); err != nil {
		return db.fail(err)
	}
	db.mu.Lock()
	delete(db.views, name)
	db.mu.Unlock()
	db.bumpEpoch(epoch)
	return nil
}

// GC drops versions superseded at or before minLive on every sequence
// and frees unreachable page versions' disk slots (quarantined until the
// next checkpoint). It returns versions dropped and page slots freed.
func (db *DB) GC(minLive int64) (versions, pages int) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	db.mu.RLock()
	seqs := make([]*Seq, 0, len(db.seqs))
	for _, s := range db.seqs {
		seqs = append(seqs, s)
	}
	db.mu.RUnlock()
	for _, s := range seqs {
		v, p := s.gcLocked(minLive)
		versions += v
		pages += p
	}
	return versions, pages
}

// ── checkpoint ──────────────────────────────────────────────────────

// cpSeq is the per-sequence state a checkpoint captures under wmu.
type cpSeq struct {
	s     *Seq
	v     *dversion
	toPro []int64 // quarantined slots to promote after the catalog lands
}

// deferredForget is a pool forget that a drop or GC deferred because the
// ref was captured by the in-flight checkpoint. free says whether the
// ref's disk slot should be quarantined for reuse afterwards (GC on a
// live sequence) or left alone (the whole file is parked for removal).
type deferredForget struct {
	file *pageFile
	ref  *pageRef
	free bool
}

// finishCheckpoint unpins the captured refs and processes the forgets
// drop/GC deferred while the checkpoint was in flight. It runs whether
// the checkpoint succeeded or failed: freed slots only become
// allocatable through the quarantine → promote hand-off, which is gated
// on a new durable catalog, so freeing here is safe in both cases.
func (db *DB) finishCheckpoint() {
	db.wmu.Lock()
	db.cpPins = nil
	deferred := db.cpDeferred
	db.cpDeferred = nil
	db.wmu.Unlock()
	for _, d := range deferred {
		if phys := db.pool.forget(d.ref); phys >= 0 && d.free {
			d.file.freeSlot(phys)
		}
	}
}

// Checkpoint rotates the WAL, flushes every dirty page of the latest
// versions, fsyncs the page files, and atomically publishes a new
// catalog pointing past the old segments — which are then deleted, along
// with the files of dropped sequences. Concurrent readers and writers
// proceed; only the brief capture section holds the writer lock.
func (db *DB) Checkpoint() error {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if db.failed.Load() {
		return fmt.Errorf("disk: database failed; not checkpointing")
	}

	// Capture, under the writer lock: rotate to a fresh segment and
	// snapshot the latest version of everything. Every write before the
	// rotation is in the old segments AND in the captured tables; every
	// write after is in the new segment and will be replayed on top.
	db.wmu.Lock()
	newSeg := db.walSeq + 1
	if err := db.w.rotate(newSeg); err != nil {
		db.wmu.Unlock()
		return db.fail(err)
	}
	db.walSeq = newSeg
	epoch := db.epoch.Load()
	nextFile := db.nextFile
	db.mu.RLock()
	caps := make([]cpSeq, 0, len(db.seqs))
	for _, s := range db.seqs {
		s.mu.RLock()
		v := s.latest()
		s.mu.RUnlock()
		caps = append(caps, cpSeq{s: s, v: v, toPro: s.file.takePending()})
	}
	views := make([]*View, 0, len(db.views))
	for _, v := range db.views {
		views = append(views, v)
	}
	db.mu.RUnlock()
	pins := make(map[*pageRef]bool)
	for _, c := range caps {
		for _, ref := range c.v.table {
			pins[ref] = true
		}
	}
	db.cpPins = pins
	dropped := db.dropped
	db.dropped = nil
	db.wmu.Unlock()
	defer db.finishCheckpoint()

	requeue := func() {
		for _, c := range caps {
			c.s.file.requeue(c.toPro)
		}
		db.wmu.Lock()
		db.dropped = append(db.dropped, dropped...)
		db.wmu.Unlock()
	}

	// Flush dirty frames and fsync the files, outside every lock but the
	// pool's own.
	for _, c := range caps {
		for _, ref := range c.v.table {
			if err := db.pool.flush(ref); err != nil {
				requeue()
				return db.fail(err)
			}
		}
		if err := c.s.file.sync(); err != nil {
			requeue()
			return db.fail(err)
		}
	}

	cat := &catalog{
		pageSize: db.cfg.PageSize,
		epoch:    epoch,
		walSeq:   newSeg,
		nextFile: nextFile,
		views:    views,
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].s.name < caps[j].s.name })
	for _, c := range caps {
		cs := catSeq{
			name: c.s.name, fileID: c.s.fileID, kind: c.v.snap.Kind(), rpp: c.s.rpp,
			schema: c.s.schema, span: c.v.snap.Info().Span, count: c.v.snap.Count(), epoch: c.v.epoch(),
		}
		for _, ref := range c.v.table {
			phys := ref.phys.Load()
			if phys < 0 {
				requeue()
				return db.fail(fmt.Errorf("disk: internal: unflushed page survived checkpoint flush"))
			}
			cs.table = append(cs.table, catRef{phys: phys, epoch: ref.epoch, first: ref.head.First, n: ref.n})
		}
		cat.seqs = append(cat.seqs, cs)
	}
	if err := writeCatalog(db.dir, cat, db.cfg.Hook); err != nil {
		requeue()
		return db.fail(err)
	}

	// The catalog landed: promote quarantined slots, delete obsolete
	// segments, remove dropped sequences' files.
	for _, c := range caps {
		c.s.file.promote(c.toPro)
	}
	if segs, err := listWALSegments(db.dir); err == nil {
		for _, n := range segs {
			if n < newSeg {
				os.Remove(filepath.Join(db.dir, walName(n)))
			}
		}
	}
	for _, f := range dropped {
		f.close()
		os.Remove(f.path)
	}
	return nil
}
