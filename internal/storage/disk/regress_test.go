package disk

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/seq"
	"repro/internal/storage"
)

// A drop replayed from the WAL leaves the dropped sequence's page file
// referenced by the on-disk catalog until a checkpoint publishes a new
// one. Recovery must not sweep that file: a second crash before the
// next checkpoint reopens from the same catalog, and loadSeq has to
// find it.
func TestRecoverReplayedDropKeepsCatalogFiles(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	db := openTest(t, dir, testConfig())
	if err := db.CreateSequence("a", testData(t, schema, 20), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSequence("b", testData(t, schema, 20), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err) // the catalog now references both page files
	}
	if err := db.DropSequence("b"); err != nil {
		t.Fatal(err) // WAL-only: no checkpoint after the drop
	}
	kill(db)

	// First recovery replays the drop and must keep b's page file.
	db2 := openTest(t, dir, testConfig())
	if _, ok := db2.Seq("b"); ok {
		t.Fatal("dropped sequence resurrected by recovery")
	}
	kill(db2) // crash again before any checkpoint

	// Second recovery loads the same catalog, which still references b.
	db3, err := Open(dir, testConfig())
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	if _, ok := db3.Seq("b"); ok {
		t.Fatal("dropped sequence resurrected by second recovery")
	}
	s, ok := db3.Seq("a")
	if !ok {
		t.Fatal("surviving sequence missing after second recovery")
	}
	if got := collect(t, s.Latest(), seq.AllSpan); len(got) != 20 {
		t.Fatalf("surviving sequence has %d records, want 20", len(got))
	}
	// A clean close checkpoints, after which the dropped file is gone.
	if err := db3.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, seqFileName(1))); !os.IsNotExist(err) {
		t.Fatalf("dropped sequence's page file not removed after checkpoint: %v", err)
	}
}

// Dropping sequences while a checkpoint is mid-flush must not poison
// the DB: the checkpoint pinned the captured refs, so the drop defers
// forgetting them until the flush completes.
func TestCheckpointSurvivesConcurrentDrop(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	var armed atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := testConfig()
	cfg.Hook = func(op string) error {
		if op == "page.write" && armed.Load() {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return nil
	}
	db, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSequence("a", testData(t, schema, 20), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSequence("b", testData(t, schema, 20), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- db.Checkpoint() }()
	<-entered // checkpoint captured both sequences, first dirty page mid-write
	if err := db.DropSequence("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropSequence("b"); err != nil {
		t.Fatal(err)
	}
	armed.Store(false)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("checkpoint failed under concurrent drops: %v", err)
	}
	if db.failed.Load() {
		t.Fatal("concurrent drops poisoned the DB")
	}
	// The DB stays writable and the drops stick across a clean reopen.
	if err := db.CreateSequence("c", testData(t, schema, 5), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTest(t, dir, testConfig())
	defer db2.Close()
	if names := db2.Names(); len(names) != 1 || names[0] != "c" {
		t.Fatalf("reopened names = %v, want [c]", names)
	}
}

// GC of a version captured by an in-flight checkpoint must defer the
// forget: the captured dirty pages have to stay resident until the
// checkpoint flushes them.
func TestGCDefersCheckpointCapturedRefs(t *testing.T) {
	db := openTest(t, t.TempDir(), testConfig())
	defer db.Close()
	schema := testSchema(t)
	// 6 entries at rpp 4: a full page and a half-full tail the next
	// append extends, making the old tail ref unique to the old version.
	if err := db.CreateSequence("a", testData(t, schema, 6), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Seq("a")
	captured := cpSeq{s: s, snap: s.Latest()}
	// Pin the latest version's refs exactly as Checkpoint's capture does.
	pins := make(map[*pageRef]bool)
	for i := range captured.snap.Pages() {
		pins[captured.ref(i)] = true
	}
	db.wmu.Lock()
	db.cpPins = pins
	db.wmu.Unlock()

	if _, err := db.Append("a", seq.Entry{Pos: 100, Rec: seq.Record{seq.Int(100)}}); err != nil {
		t.Fatal(err)
	}
	db.GC(db.Epoch()) // supersedes the captured version; its tail ref is unique

	// Every captured ref must still be flushable — the review's failure
	// mode was "dirty page version not resident at flush" here.
	for i := range captured.snap.Pages() {
		if err := db.pool.flush(captured.ref(i)); err != nil {
			t.Fatalf("captured ref forgotten during GC: %v", err)
		}
	}
	db.finishCheckpoint()
	db.wmu.Lock()
	deferred := len(db.cpDeferred)
	db.wmu.Unlock()
	if deferred != 0 {
		t.Fatalf("%d deferred forgets left after finishCheckpoint", deferred)
	}
}

// Every write the store rejects must be rejected before its WAL record
// is written: once logged, every recovery would replay it, and a page
// too large for the page size would also fail every later writeback and
// checkpoint, so the DB could never truncate its WAL again. Each
// rejection leaves the WAL and the DB's health exactly as they were.
func TestOversizedRecordRejectedBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, testConfig()) // 512-byte pages, 4 records per page
	schema, err := seq.NewSchema(seq.Field{Name: "s", Type: seq.TString})
	if err != nil {
		t.Fatal(err)
	}
	str := func(s string) seq.Record { return seq.Record{seq.Str(s)} }
	big := str(strings.Repeat("x", 2048))
	create := func(name string, kind storage.Kind, entries ...seq.Entry) error {
		m, err := seq.NewMaterialized(schema, entries)
		if err != nil {
			t.Fatal(err)
		}
		return db.CreateSequence(name, m, kind)
	}
	if err := create("a", storage.KindSparse, seq.Entry{Pos: 1, Rec: str("one")}, seq.Entry{Pos: 2, Rec: str("two")}); err != nil {
		t.Fatal(err)
	}
	// Dense pages holding one record each compact into sparse pages of
	// four records that no longer fit.
	var wide []seq.Entry
	for i := 0; i < 4; i++ {
		wide = append(wide, seq.Entry{Pos: seq.Pos(1 + 4*i), Rec: str(strings.Repeat("y", 150))})
	}
	if err := create("wide", storage.KindDense, wide...); err != nil {
		t.Fatal(err)
	}

	next := func() int64 { return db.Epoch() + 1 }
	for _, c := range []struct {
		name  string
		write func() error
	}{
		{"oversized create", func() error { return create("big", storage.KindSparse, seq.Entry{Pos: 1, Rec: big}) }},
		{"Null record", func() error { return db.AppendAt("a", seq.Entry{Pos: 3}, next()) }},
		{"non-conforming record", func() error {
			return db.AppendAt("a", seq.Entry{Pos: 3, Rec: seq.Record{seq.Int(3)}}, next())
		}},
		{"stale append epoch", func() error { return db.AppendAt("a", seq.Entry{Pos: 3, Rec: str("three")}, db.Epoch()) }},
		{"dense target", func() error { return db.AppendAt("wide", seq.Entry{Pos: 100, Rec: str("z")}, next()) }},
		{"position inside the valid range", func() error { return db.AppendAt("a", seq.Entry{Pos: 1, Rec: str("z")}, next()) }},
		{"oversized append", func() error { return db.AppendAt("a", seq.Entry{Pos: 3, Rec: big}, next()) }},
		{"stale reorganize epoch", func() error { return db.ReorganizeAt("a", storage.KindDense, db.Epoch()) }},
		{"unknown kind", func() error { return db.ReorganizeAt("a", storage.Kind(9), next()) }},
		{"oversized reorganize", func() error { return db.ReorganizeAt("wide", storage.KindSparse, next()) }},
	} {
		segment := filepath.Join(dir, walName(db.w.seq))
		before, err := os.Stat(segment)
		if err != nil {
			t.Fatal(err)
		}
		logged := db.WALBytes()
		if err := c.write(); err == nil {
			t.Fatalf("%s was accepted", c.name)
		}
		after, err := os.Stat(segment)
		if err != nil {
			t.Fatal(err)
		}
		if after.Size() != before.Size() || db.WALBytes() != logged {
			t.Errorf("%s reached the WAL: file %d -> %d bytes, logged %d -> %d",
				c.name, before.Size(), after.Size(), logged, db.WALBytes())
		}
		if db.failed.Load() {
			t.Fatalf("%s poisoned the DB", c.name)
		}
	}

	// The DB keeps working, checkpoints, and recovers cleanly.
	if _, err := db.Append("a", seq.Entry{Pos: 3, Rec: str("three")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint failed after rejected writes: %v", err)
	}
	kill(db)
	db2, err := Open(dir, testConfig())
	if err != nil {
		t.Fatalf("recovery failed after rejected writes: %v", err)
	}
	defer db2.Close()
	s, ok := db2.Seq("a")
	if !ok {
		t.Fatal("sequence missing after reopen")
	}
	if got := collect(t, s.Latest(), seq.AllSpan); len(got) != 3 {
		t.Fatalf("reopened sequence has %d records, want 3", len(got))
	}
	if s, ok := db2.Seq("wide"); !ok || s.Kind() != storage.KindDense {
		t.Fatal("rejected reorganize leaked into durable state")
	}
	if _, ok := db2.Seq("big"); ok {
		t.Fatal("rejected create leaked into durable state")
	}
}

// TestCheckpointWakesOnBytes: the append that takes the WAL to
// CheckpointBytes starts a checkpoint at once — its first act rotates
// the WAL — rather than at the checkpointer's next one-second tick.
func TestCheckpointWakesOnBytes(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = time.Hour
	cfg.CheckpointBytes = 1024
	cfg.BatchFsync = true
	db, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := testSchema(t)
	if err := db.CreateSequence("s", testData(t, schema, 1), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	pos := seq.Pos(2)
	for crossing := 1; crossing <= 20; crossing++ {
		// Wait out the previous checkpoint's rotation, then append until
		// the WAL reaches the threshold.
		for db.w.bytes() >= cfg.CheckpointBytes {
			time.Sleep(time.Millisecond)
		}
		for db.w.bytes() < cfg.CheckpointBytes {
			if _, err := db.Append("s", seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}); err != nil {
				t.Fatal(err)
			}
			pos++
		}
		crossed := time.Now()
		for db.w.bytes() >= cfg.CheckpointBytes && time.Since(crossed) < 2*time.Second {
			time.Sleep(time.Millisecond)
		}
		if d := time.Since(crossed); d > 100*time.Millisecond {
			t.Fatalf("crossing %d: the checkpoint started %v after the append that reached CheckpointBytes", crossing, d)
		}
	}
}
