package disk

import (
	"testing"

	"repro/internal/seq"
	"repro/internal/storage"
)

// TestPoolColdWarmMetering drives the cold→warm transition the cost
// model cares about: a cold scan misses once per page, a warm scan over
// a pool large enough to hold the sequence hits every page, and both
// flows reach the consumer's storage.Stats.
func TestPoolColdWarmMetering(t *testing.T) {
	cfg := testConfig()
	cfg.PoolPages = 64
	db := openTest(t, t.TempDir(), cfg)
	defer db.Close()
	schema := testSchema(t)
	if err := db.CreateSequence("a", testData(t, schema, 100), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.DropCaches()
	if n := db.PoolResident(); n != 0 {
		t.Fatalf("%d frames resident after checkpoint+drop", n)
	}

	s := mustSeq(t, db, "a")
	pages := int64(len(s.latest().table))
	cold := s.Latest()
	if got := len(collect(t, cold, seq.AllSpan)); got != 100 {
		t.Fatalf("cold scan returned %d records", got)
	}
	cs := cold.Stats().Snapshot()
	if cs.PoolMisses != pages || cs.PoolHits != 0 {
		t.Fatalf("cold scan: misses=%d hits=%d, want %d/0", cs.PoolMisses, cs.PoolHits, pages)
	}
	warm := s.Latest()
	_ = collect(t, warm, seq.AllSpan)
	ws := warm.Stats().Snapshot()
	if ws.PoolHits != pages || ws.PoolMisses != 0 {
		t.Fatalf("warm scan: hits=%d misses=%d, want %d/0", ws.PoolHits, ws.PoolMisses, pages)
	}
	// The page-touch model is identical either way — only pool traffic
	// tells the tiers apart.
	if cs.SeqPages != ws.SeqPages || cs.SeqRecords != ws.SeqRecords {
		t.Fatalf("page-touch accounting differs cold vs warm: %+v vs %+v", cs, ws)
	}
}

// TestPoolEvictionCycling scans a sequence much larger than the pool:
// every pass must evict to make room, and the counters must say so.
func TestPoolEvictionCycling(t *testing.T) {
	cfg := testConfig()
	cfg.PoolPages = 8
	db := openTest(t, t.TempDir(), cfg)
	defer db.Close()
	schema := testSchema(t)
	if err := db.CreateSequence("a", testData(t, schema, 200), storage.KindDense); err != nil {
		t.Fatal(err)
	}
	// Creating 50 pages through an 8-frame pool already forced dirty
	// writebacks; the sequence must read back intact regardless.
	pc := db.Pool()
	if pc.DirtyWrites == 0 || pc.Evictions == 0 {
		t.Fatalf("create through a tiny pool: %+v", pc)
	}
	snap := mustSeq(t, db, "a").Latest()
	if got := len(collect(t, snap, seq.AllSpan)); got != 200 {
		t.Fatalf("scan through tiny pool returned %d records", got)
	}
	st := snap.Stats().Snapshot()
	if st.PoolEvictions == 0 {
		t.Fatalf("scan larger than the pool evicted nothing: %+v", st)
	}
	if db.PoolResident() > 8 {
		t.Fatalf("pool over capacity: %d frames", db.PoolResident())
	}
}

// TestDropCachesKeepsDirty: dirty frames are pinned — dropping caches
// must not lose unflushed pages.
func TestDropCachesKeepsDirty(t *testing.T) {
	db := openTest(t, t.TempDir(), testConfig())
	defer db.Close()
	schema := testSchema(t)
	if err := db.CreateSequence("a", testData(t, schema, 40), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	before := db.PoolResident()
	db.DropCaches() // everything is dirty: nothing may leave
	if got := db.PoolResident(); got != before {
		t.Fatalf("DropCaches removed dirty frames: %d -> %d", before, got)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.DropCaches()
	if got := db.PoolResident(); got != 0 {
		t.Fatalf("%d frames resident after checkpoint + DropCaches", got)
	}
	if got := len(collect(t, mustSeq(t, db, "a").Latest(), seq.AllSpan)); got != 40 {
		t.Fatalf("scan after drop returned %d records", got)
	}
}

// TestSnapshotForkAttribution: forked snapshots charge their own stats
// blocks, pool traffic included — the parallel executor's contract.
func TestSnapshotForkAttribution(t *testing.T) {
	db := openTest(t, t.TempDir(), testConfig())
	defer db.Close()
	schema := testSchema(t)
	if err := db.CreateSequence("a", testData(t, schema, 40), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.DropCaches()
	snap := mustSeq(t, db, "a").Latest()
	var st storage.Stats
	fork := snap.Fork(&st).(seq.Sequence)
	_ = collect(t, fork, seq.AllSpan)
	if s := st.Snapshot(); s.PoolMisses == 0 || s.SeqRecords != 40 {
		t.Fatalf("fork stats not credited: %+v", s)
	}
	if s := snap.Stats().Snapshot(); s.SeqRecords != 0 {
		t.Fatalf("parent stats credited by fork: %+v", s)
	}
}
