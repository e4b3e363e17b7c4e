package storage_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// The MVCC contract — snapshot isolation, page sharing between versions,
// repacking and GC — holds for a store of either residency: pages held
// in memory, or placed by the disk tier behind a buffer pool small
// enough that frames evict under the test.

// mvccRPP is the records per page of every store these tests build.
const mvccRPP = 8

// mvccStore is a multi-version store of one residency, written at
// explicit epochs.
type mvccStore interface {
	Append(e seq.Entry, epoch int64) error
	Reorganize(kind storage.Kind, epoch int64) error
	SnapshotAt(epoch int64) *storage.Snapshot
	Latest() *storage.Snapshot
	Kind() storage.Kind
	Versions() int
	PageVersions() int
	GC(minLive int64) (versions, pages int)
	// settle checkpoints and drops the buffer pool: every page a reader
	// needs next comes from the page file. A no-op in memory.
	settle(t *testing.T)
}

type memStore struct{ *storage.Versioned }

func (memStore) settle(*testing.T) {}

// diskStore writes through the database, WAL first.
type diskStore struct {
	*disk.Seq
	db *disk.DB
}

func (d diskStore) settle(t *testing.T) {
	t.Helper()
	if err := d.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.db.DropCaches()
}

// residencies builds a store holding data, published at epoch 0.
var residencies = []struct {
	name string
	open func(t *testing.T, data *seq.Materialized, kind storage.Kind) mvccStore
}{
	{"memory", func(t *testing.T, data *seq.Materialized, kind storage.Kind) mvccStore {
		v, err := storage.NewVersioned(data, kind, mvccRPP, 0)
		if err != nil {
			t.Fatal(err)
		}
		return memStore{v}
	}},
	{"disk", func(t *testing.T, data *seq.Materialized, kind storage.Kind) mvccStore {
		db, err := disk.Open(t.TempDir(), disk.Config{
			PageSize: poolPageSize, RecordsPerPage: mvccRPP, PoolPages: 8, CheckpointInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.CreateSequenceAt("s", data, kind, 0); err != nil {
			t.Fatal(err)
		}
		s, _ := db.Seq("s")
		return diskStore{s, db}
	}},
}

// eachResidency runs f once per residency over a store of n records at
// positions 1..n.
func eachResidency(t *testing.T, n int, kind storage.Kind, f func(t *testing.T, s mvccStore)) {
	for _, r := range residencies {
		t.Run(r.name, func(t *testing.T) { f(t, r.open(t, mvccData(t, n), kind)) })
	}
}

var mvccSchema = seq.MustSchema(seq.Field{Name: "v", Type: seq.TInt})

func mvccData(t *testing.T, n int) *seq.Materialized {
	t.Helper()
	entries := make([]seq.Entry, n)
	for i := range entries {
		entries[i] = intEntry(seq.Pos(i + 1))
	}
	m, err := seq.NewMaterialized(mvccSchema, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func intEntry(pos seq.Pos) seq.Entry {
	return seq.Entry{Pos: pos, Rec: seq.Record{seq.Int(int64(pos))}}
}

func collect(t *testing.T, s seq.Sequence, span seq.Span) []seq.Entry {
	t.Helper()
	es, err := seq.Collect(s.Scan(span))
	if err != nil {
		t.Fatal(err)
	}
	return es
}

func TestVersionedSnapshotIsolation(t *testing.T) {
	eachResidency(t, 100, storage.KindSparse, func(t *testing.T, v mvccStore) {
		snap0 := v.SnapshotAt(0)
		if snap0 == nil {
			t.Fatal("no snapshot at epoch 0")
		}
		before := collect(t, snap0, seq.AllSpan)
		if len(before) != 100 {
			t.Fatalf("snapshot 0 has %d records, want 100", len(before))
		}

		// Append under later epochs; the pinned snapshot must not move.
		for i := 0; i < 50; i++ {
			if err := v.Append(intEntry(seq.Pos(101+i)), int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		after := collect(t, snap0, seq.AllSpan)
		if len(after) != 100 {
			t.Fatalf("snapshot 0 sees %d records after appends, want 100", len(after))
		}
		if got := snap0.Info().Span; got != seq.NewSpan(1, 100) {
			t.Fatalf("snapshot 0 span moved to %v", got)
		}

		// A snapshot at an intermediate epoch sees exactly the prefix.
		snap25 := v.SnapshotAt(25)
		if got := len(collect(t, snap25, seq.AllSpan)); got != 125 {
			t.Fatalf("snapshot 25 sees %d records, want 125", got)
		}
		if got := snap25.VersionEpoch(); got != 25 {
			t.Fatalf("snapshot 25 version epoch = %d", got)
		}
		latest := v.Latest()
		if got := len(collect(t, latest, seq.AllSpan)); got != 150 {
			t.Fatalf("latest sees %d records, want 150", got)
		}

		// Probes respect the snapshot too.
		if r, _ := snap0.Probe(120); r != nil {
			t.Fatalf("snapshot 0 probes future record %v", r)
		}
		if r, _ := snap25.Probe(120); r == nil {
			t.Fatal("snapshot 25 misses record 120")
		}
	})
}

func TestVersionedCopyOnWriteSharing(t *testing.T) {
	eachResidency(t, 64, storage.KindSparse, func(t *testing.T, v mvccStore) {
		base := v.PageVersions() // 8 full pages
		if base != 8 {
			t.Fatalf("base page count = %d, want 8", base)
		}
		// One append opens a fresh tail page: +1 page version.
		if err := v.Append(intEntry(65), 1); err != nil {
			t.Fatal(err)
		}
		if got := v.PageVersions(); got != base+1 {
			t.Fatalf("after first append: %d page versions, want %d", got, base+1)
		}
		// The next append copies only that tail page.
		if err := v.Append(intEntry(66), 2); err != nil {
			t.Fatal(err)
		}
		if got := v.PageVersions(); got != base+2 {
			t.Fatalf("after second append: %d page versions, want %d (tail-page COW only)", got, base+2)
		}
		if got := v.Versions(); got != 3 {
			t.Fatalf("versions = %d, want 3", got)
		}
		// GC with no reader older than epoch 2 leaves one version and one
		// page version per slot.
		if dropped, _ := v.GC(2); dropped != 2 {
			t.Fatalf("GC dropped %d versions, want 2", dropped)
		}
		if got := v.PageVersions(); got != 9 {
			t.Fatalf("after GC: %d page versions, want 9", got)
		}
		// GC must keep the newest version at or below minLive.
		if err := v.Append(intEntry(67), 5); err != nil {
			t.Fatal(err)
		}
		if dropped, _ := v.GC(3); dropped != 0 {
			t.Fatalf("GC(3) dropped %d, want 0: epoch-2 version is still live for readers at 3", dropped)
		}
	})
}

func TestVersionedReorganize(t *testing.T) {
	eachResidency(t, 100, storage.KindSparse, func(t *testing.T, v mvccStore) {
		if err := v.Reorganize(storage.KindDense, 1); err != nil {
			t.Fatal(err)
		}
		if v.Kind() != storage.KindDense {
			t.Fatalf("kind = %v, want dense", v.Kind())
		}
		old := v.SnapshotAt(0)
		nu := v.SnapshotAt(1)
		if old.Kind() != storage.KindSparse || nu.Kind() != storage.KindDense {
			t.Fatalf("snapshot kinds = %v/%v", old.Kind(), nu.Kind())
		}
		a, b := collect(t, old, seq.AllSpan), collect(t, nu, seq.AllSpan)
		if len(a) != len(b) {
			t.Fatalf("reorganize changed record count %d -> %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Pos != b[i].Pos || !a[i].Rec.Equal(b[i].Rec) {
				t.Fatalf("entry %d differs: %v vs %v", i, a[i], b[i])
			}
		}
		// Dense probing is O(1) page.
		if c := nu.AccessCosts(); c.ProbePages != 1 {
			t.Fatalf("dense probe cost = %d pages, want 1", c.ProbePages)
		}
		// Appends are rejected until reorganized back to sparse.
		if err := v.Append(intEntry(101), 2); err == nil {
			t.Fatal("append to dense version succeeded")
		}
		if err := v.Reorganize(storage.KindSparse, 2); err != nil {
			t.Fatal(err)
		}
		if err := v.Append(intEntry(101), 3); err != nil {
			t.Fatal(err)
		}
	})
}

func TestVersionedScanMidSpanAndProbeCosts(t *testing.T) {
	eachResidency(t, 100, storage.KindSparse, func(t *testing.T, v mvccStore) {
		snap := v.Latest()
		es := collect(t, snap, seq.NewSpan(40, 60))
		if len(es) != 21 {
			t.Fatalf("mid-span scan returned %d records, want 21", len(es))
		}
		for i, e := range es {
			if e.Pos != seq.Pos(40+i) {
				t.Fatalf("entry %d at position %d, want %d", i, e.Pos, 40+i)
			}
		}
		st := snap.Stats().Snapshot()
		if st.RandPages == 0 {
			t.Fatal("mid-span scan charged no index descent")
		}
		if st.SeqRecords != 21 {
			t.Fatalf("scan delivered %d records, want 21", st.SeqRecords)
		}
	})
}

// TestVersionedPinnedReaderSurvivesGC pins a reader, supersedes its
// version past a page boundary and runs GC at the pinned epoch: the
// pages the pinned version shares with the dropped ones must not be
// released. On disk the released slots are then reused by later appends
// while the pool is dropped twice, so a wrongly released page would be
// read back overwritten or missing.
func TestVersionedPinnedReaderSurvivesGC(t *testing.T) {
	eachResidency(t, 20, storage.KindSparse, func(t *testing.T, v mvccStore) {
		epoch, next := int64(0), seq.Pos(21)
		appendTo := func(last seq.Pos) {
			t.Helper()
			for ; next <= last; next++ {
				epoch++
				if err := v.Append(intEntry(next), epoch); err != nil {
					t.Fatal(err)
				}
			}
		}
		appendTo(23) // versions 1..3 each copy the short tail page
		pinned := v.SnapshotAt(epoch)
		pinnedAt := epoch
		want := collect(t, pinned, seq.AllSpan)
		appendTo(35) // past two page boundaries

		if dropped, _ := v.GC(pinnedAt); dropped != 3 {
			t.Fatalf("GC(%d) dropped %d versions, want 3", pinnedAt, dropped)
		}
		v.settle(t)
		appendTo(80) // writebacks reuse the slots GC freed
		v.GC(pinnedAt)
		v.settle(t)

		got := collect(t, pinned, seq.AllSpan)
		if len(got) != len(want) {
			t.Fatalf("pinned snapshot scans %d records after GC, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Pos != want[i].Pos || !got[i].Rec.Equal(want[i].Rec) {
				t.Fatalf("pinned entry %d = %v, want %v", i, got[i], want[i])
			}
		}
		for _, e := range want {
			r, err := pinned.Probe(e.Pos)
			if err != nil || !r.Equal(e.Rec) {
				t.Fatalf("pinned probe(%d) = %v, %v; want %v", e.Pos, r, err, e.Rec)
			}
		}
		if r, err := pinned.Probe(30); err != nil || r != nil {
			t.Fatalf("pinned probe of a later append = %v, %v; want Null", r, err)
		}
	})
}

func TestEpochTracker(t *testing.T) {
	tr := storage.NewEpochTracker()
	if tr.Current() != 0 {
		t.Fatal("fresh tracker not at epoch 0")
	}
	e := tr.Pin()
	if e != 0 || tr.LiveReaders() != 1 {
		t.Fatalf("pin: epoch %d live %d", e, tr.LiveReaders())
	}
	if err := tr.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.AdvanceTo(1); err == nil {
		t.Fatal("re-publishing epoch 1 succeeded")
	}
	e2 := tr.Pin()
	if e2 != 1 {
		t.Fatalf("second pin at %d, want 1", e2)
	}
	if got := tr.MinLive(); got != 0 {
		t.Fatalf("min live = %d, want 0", got)
	}
	tr.Release(e)
	if got := tr.MinLive(); got != 1 {
		t.Fatalf("after release: min live = %d, want 1", got)
	}
	tr.Release(e2)
	if got := tr.MinLive(); got != 1 || tr.LiveReaders() != 0 {
		t.Fatalf("idle tracker: min live %d readers %d", got, tr.LiveReaders())
	}
}

// TestVersionedConcurrentReaders runs appending writers against pinned
// readers under the race detector: every reader must see exactly the
// records visible at its pinned epoch, on every re-scan.
func TestVersionedConcurrentReaders(t *testing.T) {
	v, err := storage.NewVersioned(mvccData(t, 50), storage.KindSparse, mvccRPP, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := storage.NewEpochTracker()
	const appends = 200

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			e := tr.Current() + 1
			if err := v.Append(intEntry(seq.Pos(51+i)), e); err != nil {
				panic(err)
			}
			if err := tr.AdvanceTo(e); err != nil {
				panic(err)
			}
			if i%20 == 0 {
				v.GC(tr.MinLive())
			}
		}
	}()

	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				e := tr.Pin()
				snap := v.SnapshotAt(e)
				a := mustCollect(snap, errs)
				b := mustCollect(snap, errs)
				if len(a) != len(b) {
					errs <- fmt.Errorf("snapshot at %d unstable: %d then %d records", e, len(a), len(b))
				}
				want := 50 + int(e)
				if len(a) != want {
					errs <- fmt.Errorf("snapshot at %d has %d records, want %d", e, len(a), want)
				}
				tr.Release(e)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func mustCollect(s seq.Sequence, errs chan<- error) []seq.Entry {
	es, err := seq.Collect(s.Scan(seq.AllSpan))
	if err != nil {
		errs <- err
	}
	return es
}
