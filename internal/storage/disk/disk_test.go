package disk

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/seq"
	"repro/internal/storage"
)

// testConfig disables background goroutines and shrinks pages so tests
// exercise multi-page tables with little data.
func testConfig() Config {
	return Config{
		PageSize:           512,
		RecordsPerPage:     4,
		PoolPages:          64,
		CheckpointInterval: -1,
	}
}

func testSchema(t *testing.T) *seq.Schema {
	t.Helper()
	s, err := seq.NewSchema(seq.Field{Name: "v", Type: seq.TInt})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testData(t *testing.T, schema *seq.Schema, n int) *seq.Materialized {
	t.Helper()
	entries := make([]seq.Entry, n)
	for i := range entries {
		entries[i] = seq.Entry{Pos: seq.Pos(i + 1), Rec: seq.Record{seq.Int(int64(i + 1))}}
	}
	m, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openTest(t *testing.T, dir string, cfg Config) *DB {
	t.Helper()
	db, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func collect(t *testing.T, s seq.Sequence, span seq.Span) []seq.Entry {
	t.Helper()
	es, err := seq.Collect(s.Scan(span))
	if err != nil {
		t.Fatal(err)
	}
	return es
}

func entriesEqual(a, b []seq.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || !a[i].Rec.Equal(b[i].Rec) {
			return false
		}
	}
	return true
}

// kill abandons a DB without checkpointing or flushing buffers — the
// closest a test gets to a crash without a child process. Unsynced WAL
// bytes are dropped, page files are closed as-is.
func kill(db *DB) {
	db.wmu.Lock()
	already := db.closed
	db.closed = true
	db.wmu.Unlock()
	if already {
		return
	}
	close(db.quit)
	db.wg.Wait()
	db.w.mu.Lock()
	db.w.f.Close()
	db.w.mu.Unlock()
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
}

func TestCreateScanProbe(t *testing.T) {
	for _, kind := range []storage.Kind{storage.KindSparse, storage.KindDense} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTest(t, t.TempDir(), testConfig())
			defer db.Close()
			schema := testSchema(t)
			data := testData(t, schema, 50)
			if err := db.CreateSequence("a", data, kind); err != nil {
				t.Fatal(err)
			}
			s, ok := db.Seq("a")
			if !ok {
				t.Fatal("sequence missing after create")
			}
			snap := s.Latest()
			if snap.Kind() != kind {
				t.Fatalf("kind = %v, want %v", snap.Kind(), kind)
			}
			got := collect(t, snap, seq.AllSpan)
			if !entriesEqual(got, data.Entries()) {
				t.Fatalf("scan returned %d entries, want %d matching", len(got), data.Count())
			}
			for _, pos := range []seq.Pos{1, 25, 50} {
				r, err := snap.Probe(pos)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Equal(seq.Record{seq.Int(int64(pos))}) {
					t.Fatalf("probe(%d) = %v", pos, r)
				}
			}
			if r, err := snap.Probe(51); err != nil || !r.IsNull() {
				t.Fatalf("probe(51) = %v, %v; want Null", r, err)
			}
			st := snap.Stats().Snapshot()
			if st.SeqPages == 0 || st.SeqRecords != 50 {
				t.Fatalf("scan charged seqPages=%d seqRecords=%d", st.SeqPages, st.SeqRecords)
			}
			if st.PoolHits == 0 {
				t.Fatalf("page fetches did not reach the pool counters: %+v", st)
			}
		})
	}
}

func TestReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	db := openTest(t, dir, testConfig())
	if err := db.CreateSequence("a", testData(t, schema, 30), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pos := seq.Pos(31 + i)
		if _, err := db.Append("a", seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}); err != nil {
			t.Fatal(err)
		}
	}
	epoch := db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openTest(t, dir, testConfig())
	defer db.Close()
	if got := db.Epoch(); got != epoch {
		t.Fatalf("epoch after reopen = %d, want %d", got, epoch)
	}
	s, ok := db.Seq("a")
	if !ok {
		t.Fatal("sequence missing after reopen")
	}
	// A clean close checkpointed: the first scan must come from disk, not
	// a warm pool.
	st := s.Latest()
	got := collect(t, st, seq.AllSpan)
	if len(got) != 35 || got[34].Pos != 35 {
		t.Fatalf("reopen sees %d entries (last %v)", len(got), got[len(got)-1])
	}
	if ss := st.Stats().Snapshot(); ss.PoolMisses == 0 {
		t.Fatalf("first scan after reopen had no pool misses: %+v", ss)
	}
}

func TestRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	db := openTest(t, dir, testConfig())
	if err := db.CreateSequence("a", testData(t, schema, 10), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		pos := seq.Pos(11 + i)
		if _, err := db.Append("a", seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}); err != nil {
			t.Fatal(err)
		}
	}
	epoch := db.Epoch()
	kill(db) // no checkpoint: everything must come back from the WAL

	db = openTest(t, dir, testConfig())
	defer db.Close()
	if got := db.Epoch(); got != epoch {
		t.Fatalf("epoch after recovery = %d, want %d", got, epoch)
	}
	s, ok := db.Seq("a")
	if !ok {
		t.Fatal("sequence missing after WAL recovery")
	}
	got := collect(t, s.Latest(), seq.AllSpan)
	if len(got) != 17 || got[16].Pos != 17 {
		t.Fatalf("recovery sees %d entries", len(got))
	}
}

func TestTornTailDiscardedByCRC(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	db := openTest(t, dir, testConfig())
	if err := db.CreateSequence("a", testData(t, schema, 4), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pos := seq.Pos(5 + i)
		if _, err := db.Append("a", seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}); err != nil {
			t.Fatal(err)
		}
	}
	walSeg := db.w.seq
	kill(db)

	// Tear the last record: chop a few bytes off the segment, the shape a
	// crash mid-write leaves. Recovery must keep the first two appends and
	// discard the torn third without erroring.
	path := filepath.Join(dir, walName(walSeg))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	db = openTest(t, dir, testConfig())
	got := collect(t, mustSeq(t, db, "a").Latest(), seq.AllSpan)
	if len(got) != 6 || got[5].Pos != 6 {
		t.Fatalf("after torn tail: %d entries (want 6, through pos 6)", len(got))
	}
	kill(db)

	// Corrupt a payload byte of the last intact record instead: the CRC
	// must reject it even though the length frame is intact.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lastPayload int
	for off := 0; off+8 <= len(data); {
		n := int(getU32(data[off : off+4]))
		if n == 0 || off+8+n > len(data) {
			break
		}
		lastPayload = off + 8
		off += 8 + n
	}
	data[lastPayload] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db = openTest(t, dir, testConfig())
	defer db.Close()
	got = collect(t, mustSeq(t, db, "a").Latest(), seq.AllSpan)
	if len(got) != 5 || got[4].Pos != 5 {
		t.Fatalf("after CRC corruption: %d entries (want 5, through pos 5)", len(got))
	}
}

func mustSeq(t *testing.T, db *DB, name string) *Seq {
	t.Helper()
	s, ok := db.Seq(name)
	if !ok {
		t.Fatalf("sequence %q missing", name)
	}
	return s
}

func TestReorganizeSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	db := openTest(t, dir, testConfig())
	if err := db.CreateSequence("a", testData(t, schema, 20), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Reorganize("a", storage.KindDense); err != nil {
		t.Fatal(err)
	}
	kill(db)

	db = openTest(t, dir, testConfig())
	defer db.Close()
	s := mustSeq(t, db, "a")
	if s.Kind() != storage.KindDense {
		t.Fatalf("kind after recovery = %v, want dense", s.Kind())
	}
	if got := collect(t, s.Latest(), seq.AllSpan); len(got) != 20 {
		t.Fatalf("reorganized sequence has %d entries", len(got))
	}
}

func TestDropSequenceAndFileRemoval(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	db := openTest(t, dir, testConfig())
	if err := db.CreateSequence("a", testData(t, schema, 10), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSequence("b", testData(t, schema, 10), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	fileA := filepath.Join(dir, seqFileName(mustSeq(t, db, "a").fileID))
	if err := db.DropSequence("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Seq("a"); ok {
		t.Fatal("dropped sequence still visible")
	}
	// The file lingers until a checkpoint proves recovery no longer needs
	// the drop's WAL record... after the checkpoint it must be gone.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(fileA); !os.IsNotExist(err) {
		t.Fatalf("dropped sequence's file still present after checkpoint: %v", err)
	}
	kill(db)
	db = openTest(t, dir, testConfig())
	defer db.Close()
	if _, ok := db.Seq("a"); ok {
		t.Fatal("dropped sequence resurrected by recovery")
	}
	if _, ok := db.Seq("b"); !ok {
		t.Fatal("surviving sequence lost")
	}
}

func TestViewsPersistAndInvalidate(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	db := openTest(t, dir, testConfig())
	if err := db.CreateSequence("a", testData(t, schema, 10), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	v := &View{
		Name: "va", SEQL: "select a", Span: seq.NewSpan(1, 10), Epoch: db.Epoch(),
		Bases:   []string{"a"},
		Entries: []seq.Entry{{Pos: 1, Rec: seq.Record{seq.Int(1)}}},
	}
	if err := db.PutViewAt(v); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openTest(t, dir, testConfig())
	views := db.Views()
	if len(views) != 1 || views[0].Name != "va" || views[0].Epoch != v.Epoch {
		t.Fatalf("views after reopen: %+v", views)
	}
	if len(views[0].Entries) != 1 || !views[0].Entries[0].Rec.Equal(v.Entries[0].Rec) {
		t.Fatalf("view entries lost: %+v", views[0].Entries)
	}
	// A base write invalidates the persisted view, durably.
	if _, err := db.Append("a", seq.Entry{Pos: 11, Rec: seq.Record{seq.Int(11)}}); err != nil {
		t.Fatal(err)
	}
	if len(db.Views()) != 0 {
		t.Fatal("view survived a base append")
	}
	kill(db)
	db = openTest(t, dir, testConfig())
	defer db.Close()
	if len(db.Views()) != 0 {
		t.Fatal("invalidated view resurrected by recovery")
	}
}

func TestGCFreesAndReusesSlots(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	cfg := testConfig()
	cfg.PoolPages = 8 // force eviction writebacks so old versions hold disk slots
	db := openTest(t, dir, cfg)
	if err := db.CreateSequence("a", testData(t, schema, 8), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		pos := seq.Pos(9 + i)
		if _, err := db.Append("a", seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}); err != nil {
			t.Fatal(err)
		}
	}
	// Flush everything so superseded page versions hold disk slots.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := mustSeq(t, db, "a")
	if s.Versions() != 31 {
		t.Fatalf("retained %d versions before GC", s.Versions())
	}
	versions, pages := db.GC(db.Epoch())
	if versions != 30 || pages == 0 {
		t.Fatalf("GC dropped %d versions, freed %d pages", versions, pages)
	}
	if s.Versions() != 1 {
		t.Fatalf("retained %d versions after GC", s.Versions())
	}
	// Freed slots are quarantined until the next checkpoint, then reused:
	// appending after a checkpoint must not grow the file.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, _ := s.file.allocState()
	for i := 0; i < 10; i++ {
		pos := seq.Pos(39 + i)
		if _, err := db.Append("a", seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}); err != nil {
			t.Fatal(err)
		}
	}
	db.GC(db.Epoch())
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.file.allocState()
	if after > before {
		t.Fatalf("file grew from %d to %d slots despite free slots", before, after)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTest(t, dir, testConfig())
	defer db.Close()
	got := collect(t, mustSeq(t, db, "a").Latest(), seq.AllSpan)
	if len(got) != 48 {
		t.Fatalf("after GC + reuse + reopen: %d entries, want 48", len(got))
	}
}

func TestFailedStateRejectsWritesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	var fail bool
	cfg := testConfig()
	cfg.Hook = func(op string) error {
		if fail && op == "wal.write" {
			return os.ErrInvalid
		}
		return nil
	}
	db := openTest(t, dir, cfg)
	if err := db.CreateSequence("a", testData(t, schema, 5), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append("a", seq.Entry{Pos: 6, Rec: seq.Record{seq.Int(6)}}); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, err := db.Append("a", seq.Entry{Pos: 7, Rec: seq.Record{seq.Int(7)}}); err == nil {
		t.Fatal("append succeeded through a failing fsync")
	}
	if _, err := db.Append("a", seq.Entry{Pos: 8, Rec: seq.Record{seq.Int(8)}}); err == nil {
		t.Fatal("append accepted on a failed database")
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on a failed database")
	}
	// Reads still work from memory.
	if got := len(collect(t, mustSeq(t, db, "a").Latest(), seq.AllSpan)); got != 6 {
		t.Fatalf("failed DB serves %d entries, want 6", got)
	}
	kill(db)
	db = openTest(t, dir, testConfig())
	defer db.Close()
	got := collect(t, mustSeq(t, db, "a").Latest(), seq.AllSpan)
	if len(got) != 6 || got[5].Pos != 6 {
		t.Fatalf("recovery after failure sees %d entries", len(got))
	}
}

func TestExistingPageSizeWins(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	db := openTest(t, dir, cfg)
	if err := db.CreateSequence("a", testData(t, testSchema(t), 5), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.PageSize = 4096
	db = openTest(t, dir, cfg2)
	defer db.Close()
	if db.PageSize() != cfg.PageSize {
		t.Fatalf("page size = %d, want the existing database's %d", db.PageSize(), cfg.PageSize)
	}
}
