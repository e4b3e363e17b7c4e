package storage_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// The disk tier's versions are storage.Snapshots whose pages come
// through the buffer pool. These tests read them through both execution
// planes — cold, warm and from several goroutines — and through a
// corrupted page file.

const poolPageSize = 512

var valueSchema = seq.MustSchema(seq.Field{Name: "v", Type: seq.TFloat})

// openPool opens a database whose pages hold storage.ParityRPP records
// and whose pool holds poolPages frames.
func openPool(t *testing.T, dir string, poolPages int) *disk.DB {
	t.Helper()
	db, err := disk.Open(dir, disk.Config{
		PageSize: poolPageSize, RecordsPerPage: storage.ParityRPP, PoolPages: poolPages, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// createCheckpointed stores positions as a sequence of the given kind
// and checkpoints it, so every page is clean and DropCaches empties the
// pool.
func createCheckpointed(t *testing.T, db *disk.DB, name string, kind storage.Kind, positions []seq.Pos) *disk.Seq {
	t.Helper()
	entries := make([]seq.Entry, len(positions))
	for i, p := range positions {
		entries[i] = seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p))}}
	}
	m, err := seq.NewMaterialized(valueSchema, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSequence(name, m, kind); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s, ok := db.Seq(name)
	if !ok {
		t.Fatalf("sequence %s missing after create", name)
	}
	return s
}

// pagesEntered is the number of pages a scan of span fetches from a
// store of the given kind over positions: the page the scan starts on,
// plus every later page that starts inside the span.
func pagesEntered(kind storage.Kind, positions []seq.Pos, span seq.Span) int64 {
	hull := seq.NewSpan(positions[0], positions[len(positions)-1])
	span = span.Intersect(hull)
	if span.IsEmpty() {
		return 0
	}
	var firsts []seq.Pos // each page's first position
	if kind == storage.KindDense {
		for p := hull.Start; p <= hull.End; p += storage.ParityRPP {
			firsts = append(firsts, p)
		}
	} else {
		for i := 0; i < len(positions); i += storage.ParityRPP {
			firsts = append(firsts, positions[i])
		}
	}
	start := max(sort.Search(len(firsts), func(i int) bool { return firsts[i] > span.Start })-1, 0)
	n := int64(1)
	for i := start + 1; i < len(firsts) && firsts[i] <= span.End; i++ {
		n++
	}
	return n
}

// TestPoolBackedBatchScanStatsParity runs the memory parity table over
// pool-backed snapshots, warm and cold: both planes deliver the same
// entries and charge the same pages, records and pool lookups, and each
// page the scan enters costs exactly one pool lookup.
func TestPoolBackedBatchScanStatsParity(t *testing.T) {
	db := openPool(t, t.TempDir(), 64)
	for _, kind := range []storage.Kind{storage.KindDense, storage.KindSparse} {
		l := storage.ParityLayouts[kind]
		s := createCheckpointed(t, db, kind.String(), kind, l.Positions)
		for _, cold := range []bool{false, true} {
			prepare := func() {}
			if cold {
				prepare = db.DropCaches
			}
			for _, span := range l.Spans {
				for _, size := range l.Sizes {
					d := storage.CheckBatchStatsParity(t, s.Latest(), span, size, prepare)
					lookups := d.PoolHits + d.PoolMisses
					if want := pagesEntered(kind, l.Positions, span); lookups != want {
						t.Errorf("%v cold=%v span %v size %d: %d pool lookups, %d pages entered",
							kind, cold, span, size, lookups, want)
					}
					if cold && d.PoolHits != 0 || !cold && d.PoolMisses != 0 {
						t.Errorf("%v cold=%v span %v size %d: pool %+v", kind, cold, span, size, d)
					}
				}
			}
		}
	}
}

// TestPoolBackedCorruptPage flips a byte in every checkpointed data page
// and drops the pool: each read path must report the CRC failure rather
// than return a short result or panic.
func TestPoolBackedCorruptPage(t *testing.T) {
	for _, kind := range []storage.Kind{storage.KindDense, storage.KindSparse} {
		dir := t.TempDir()
		db := openPool(t, dir, 64)
		s := createCheckpointed(t, db, "c", kind, []seq.Pos{1, 2, 3, 5, 8, 13, 21})
		files, err := filepath.Glob(filepath.Join(dir, "*.spf"))
		if err != nil || len(files) != 1 {
			t.Fatalf("page files %v, err %v", files, err)
		}
		img, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		// Page p starts at (1+p)*pageSize; its payload follows an 8-byte
		// CRC and length header.
		for off := poolPageSize; off+poolPageSize <= len(img); off += poolPageSize {
			img[off+8] ^= 0xff
		}
		if err := os.WriteFile(files[0], img, 0o644); err != nil {
			t.Fatal(err)
		}
		db.DropCaches()

		crc := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "CRC") {
				t.Errorf("%v: %s reported %v, want a CRC error", kind, what, err)
			}
		}
		snap := s.Latest()
		_, err = snap.Probe(5)
		crc("Probe", err)
		cur := snap.Scan(seq.AllSpan)
		for {
			if _, _, ok := cur.Next(); !ok {
				break
			}
		}
		crc("Scan", cur.Err())
		bc := snap.ScanBatches(seq.AllSpan, seq.NewBatchCtx())
		for {
			if _, ok := bc.NextBatch(); !ok {
				break
			}
		}
		crc("ScanBatches", bc.Err())
	}
}

// TestPoolBackedConcurrentReaders scans forks of one pool-backed
// snapshot from several goroutines, on both planes, while a writer
// appends and a pool far smaller than the data evicts under them.
func TestPoolBackedConcurrentReaders(t *testing.T) {
	db := openPool(t, t.TempDir(), 8)
	var positions []seq.Pos
	for p := seq.Pos(1); p <= 100; p++ {
		positions = append(positions, p)
	}
	s := createCheckpointed(t, db, "c", storage.KindSparse, positions)
	snap := s.Latest()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(batch bool) {
			defer wg.Done()
			st := snap.Fork(&storage.Stats{})
			for i := 0; i < 20; i++ {
				n, err := 0, error(nil)
				if batch {
					cur := st.ScanBatches(seq.AllSpan, seq.NewBatchCtx())
					for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
						n += b.ValidRows()
					}
					err = cur.Err()
				} else {
					var es []seq.Entry
					es, err = seq.Collect(st.Scan(seq.AllSpan))
					n = len(es)
				}
				if err != nil || n != len(positions) {
					t.Errorf("batch=%v: read %d records, err %v; want %d", batch, n, err, len(positions))
					return
				}
			}
		}(g%2 == 0)
	}
	for p := seq.Pos(101); p <= 140; p++ {
		if _, err := db.Append("c", seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p))}}); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}

// TestForkAttribution checks the per-consumer attribution EXPLAIN
// ANALYZE runs on, over a resident and a pool-backed snapshot: scalar,
// batch and probe accesses through a fork count only into the fork's
// Stats, and folding those back with AddSnapshot moves the shared block
// exactly as the same accesses through the unforked store do.
func TestForkAttribution(t *testing.T) {
	var positions []seq.Pos
	var entries []seq.Entry
	for p := seq.Pos(1); p <= 300; p += 3 {
		positions = append(positions, p)
		entries = append(entries, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p))}})
	}
	m, err := seq.NewMaterialized(valueSchema, entries)
	if err != nil {
		t.Fatal(err)
	}
	db := openPool(t, t.TempDir(), 64)
	for _, kind := range []storage.Kind{storage.KindDense, storage.KindSparse} {
		mem, err := storage.FromMaterialized(m, kind, storage.ParityRPP)
		if err != nil {
			t.Fatal(err)
		}
		pooled := createCheckpointed(t, db, kind.String(), kind, positions).Latest()
		t.Run(kind.String(), func(t *testing.T) {
			checkForkAttribution(t, "memory", mem, func() {})
			// The pool-backed store starts each pass cold, so both passes
			// miss alike.
			checkForkAttribution(t, "pool", pooled, db.DropCaches)
		})
	}
}

func checkForkAttribution(t *testing.T, name string, st storage.Store, prepare func()) {
	t.Helper()
	// access reads s on both planes and probes it.
	access := func(s storage.Store) int {
		prepare()
		es, err := seq.Collect(s.Scan(seq.NewSpan(40, 200)))
		if err != nil {
			t.Fatal(err)
		}
		ctx := seq.NewBatchCtx()
		ctx.Size = 7
		n := len(es)
		cur := s.ScanBatches(seq.NewSpan(100, 290), ctx)
		for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
			n += b.ValidRows()
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		cur.Close()
		for p := seq.Pos(1); p <= 300; p += 11 {
			if _, err := s.Probe(p); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	shared := st.Stats()
	shared.Reset()
	wantRows := access(st)
	want := shared.SnapshotAndReset()
	if want.Pages() == 0 || want.SeqRecords == 0 || want.ProbeRecords == 0 {
		t.Fatalf("%s: unforked pass counted %+v; the test is vacuous", name, want)
	}
	if name == "pool" && want.PoolMisses == 0 {
		t.Fatalf("%s: cold pass counted no pool misses", name)
	}

	priv := &storage.Stats{}
	if rows := access(st.Fork(priv)); rows != wantRows {
		t.Fatalf("%s: fork read %d rows, store %d", name, rows, wantRows)
	}
	if moved := shared.Snapshot(); moved != (storage.StatsSnapshot{}) {
		t.Fatalf("%s: fork accesses reached the shared block: %+v", name, moved)
	}
	if got := priv.Snapshot(); got != want {
		t.Fatalf("%s: fork counted %+v, unforked %+v", name, got, want)
	}
	shared.AddSnapshot(priv.Snapshot())
	if got := shared.Snapshot(); got != want {
		t.Fatalf("%s: folded fork %+v, unforked %+v", name, got, want)
	}
}
