package storage

import (
	"testing"

	"repro/internal/seq"
)

// drainBatches consumes a batch cursor and returns the valid rows.
func drainBatches(t *testing.T, cur seq.BatchCursor) []seq.Entry {
	t.Helper()
	defer cur.Close()
	var out []seq.Entry
	for {
		b, ok := cur.NextBatch()
		if !ok {
			break
		}
		out = b.AppendEntries(out, nil)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func eqEntries(a, b []seq.Entry) bool {
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

func collect(t *testing.T, s seq.Sequence, span seq.Span) []seq.Entry {
	t.Helper()
	es, err := seq.Collect(s.Scan(span))
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// checkBatchStatsParity scans the store through both planes over the
// same span and requires identical entries AND identical accounting —
// pages, records and buffer-pool lookups: the batch cursors flush their
// locally accumulated counters batch by batch, but the totals must be
// position-for-position what the scalar cursor would have charged.
// prepare, when non-nil, runs before each pass (a cold pool-backed store
// drops its caches there). It returns the accounting of one pass.
func checkBatchStatsParity(t *testing.T, st Store, span seq.Span, size int, prepare func()) StatsSnapshot {
	t.Helper()
	pass := func(scan func() []seq.Entry) ([]seq.Entry, StatsSnapshot) {
		if prepare != nil {
			prepare()
		}
		st.Stats().Reset()
		got := scan()
		return got, st.Stats().SnapshotAndReset()
	}
	want, scalarDelta := pass(func() []seq.Entry { return collect(t, st, span) })
	ctx := seq.NewBatchCtx()
	ctx.Size = size
	got, batchDelta := pass(func() []seq.Entry { return drainBatches(t, st.ScanBatches(span, ctx)) })

	if !eqEntries(got, want) {
		t.Fatalf("span %v size %d: batch entries %v, scalar %v", span, size, got, want)
	}
	if scalarDelta != batchDelta {
		t.Fatalf("span %v size %d: batch accounting %+v, scalar %+v", span, size, batchDelta, scalarDelta)
	}
	return scalarDelta
}

// parityRPP is the page capacity the parity layouts are packed with;
// batch sizes below it end batches mid-page.
const parityRPP = 2

// parityLayout is one store the batch/scalar parity tests scan: its
// records' positions, the spans scanned and the batch sizes. Memory and
// pool-backed snapshots run the same table.
type parityLayout struct {
	Positions []seq.Pos
	Spans     []seq.Span
	Sizes     []int
}

var parityLayouts = map[Kind]parityLayout{
	KindDense: {
		Positions: []seq.Pos{1, 3, 5, 6, 8, 9, 12},
		Spans: []seq.Span{
			seq.NewSpan(-5, 20), // superset: dense narrows at open
			seq.NewSpan(1, 12),  // exact
			seq.NewSpan(4, 9),   // interior, starts on an empty slot
			seq.NewSpan(6, 6),   // single position
			seq.NewSpan(13, 20), // entirely past the data
		},
		Sizes: []int{1, 2, 3, 4096},
	},
	KindSparse: {
		Positions: []seq.Pos{1, 3, 5, 6, 8, 9, 12, 20, 21, 30},
		Spans: []seq.Span{
			seq.NewSpan(-5, 40), // full range from before the first record
			seq.NewSpan(1, 30),  // exact
			seq.NewSpan(5, 21),  // mid-span start: charges the binary-search probe
			seq.NewSpan(7, 7),   // misses every record
			seq.NewSpan(10, 11), // in the gap behind a page's last record
			seq.NewSpan(31, 40), // past the data
		},
		Sizes: []int{1, 2, 4, 4096},
	},
}

func checkLayoutParity(t *testing.T, kind Kind) {
	l := parityLayouts[kind]
	st := mkStore(t, kind, mkEntries(l.Positions...), seq.EmptySpan, parityRPP)
	for _, span := range l.Spans {
		for _, size := range l.Sizes {
			checkBatchStatsParity(t, st, span, size, nil)
		}
	}
}

func TestDenseBatchScanStatsParity(t *testing.T)  { checkLayoutParity(t, KindDense) }
func TestSparseBatchScanStatsParity(t *testing.T) { checkLayoutParity(t, KindSparse) }

// TestBatchScanParityAcrossPageVersions scans snapshots whose pages were
// written by different versions — appended tail pages, and a spliced
// region between shared pages — through both planes.
func TestBatchScanParityAcrossPageVersions(t *testing.T) {
	m := seq.MustMaterialized(closeSchema, mkEntries(1, 3, 5, 6, 8))
	v, err := NewVersioned(m, KindSparse, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []seq.Pos{9, 12, 20, 21} {
		if err := v.Append(mkEntries(p)[0], int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	stores := []Store{v.SnapshotAt(2), v.Latest()}
	for _, kind := range []Kind{KindSparse, KindDense} {
		old := mkStore(t, kind, mkEntries(seqRange(1, 21)...), seq.EmptySpan, 2)
		spliced, ok, err := Replace(old, seq.NewSpan(6, 11), mkEntries(7, 10))
		if err != nil || !ok {
			t.Fatalf("%v: Replace = ok %v, err %v", kind, ok, err)
		}
		stores = append(stores, spliced)
	}
	for _, st := range stores {
		for _, span := range []seq.Span{seq.NewSpan(-5, 40), seq.NewSpan(4, 12), seq.NewSpan(9, 9), seq.NewSpan(13, 19)} {
			for _, size := range []int{1, 3, 4096} {
				checkBatchStatsParity(t, st, span, size, nil)
			}
		}
	}
}

func TestSparseBatchMidSpanChargesProbe(t *testing.T) {
	s := mkStore(t, KindSparse, mkEntries(1, 3, 5, 6, 8, 9, 12, 20, 21, 30), seq.EmptySpan, 2)
	s.Stats().Reset()
	ctx := seq.NewBatchCtx()
	drainBatches(t, s.ScanBatches(seq.NewSpan(10, 30), ctx))
	d := s.Stats().SnapshotAndReset()
	if d.RandPages == 0 {
		t.Error("mid-span batch scan charged no random pages for the seek")
	}
	// A scan from the very start performs no seek.
	drainBatches(t, s.ScanBatches(seq.NewSpan(-5, 30), ctx))
	d = s.Stats().SnapshotAndReset()
	if d.RandPages != 0 {
		t.Errorf("from-start batch scan charged %d random pages", d.RandPages)
	}
}

// TestMeteredBatchDelegation checks the metered batch path: a fork of
// the store is scanned natively on the batch plane with the consumer
// credited per batch, and the credited deltas equal what the scalar
// scan of the same fork charges.
func TestMeteredBatchDelegation(t *testing.T) {
	for _, kind := range []Kind{KindSparse, KindDense} {
		m, err := seq.NewMaterialized(closeSchema, mkEntries(1, 3, 5, 6, 8, 9, 12))
		if err != nil {
			t.Fatal(err)
		}
		st, err := FromMaterialized(m, kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		span := seq.NewSpan(1, 12)

		consumer := &Stats{}
		wrapped := st.Fork(consumer)
		want := collect(t, wrapped, span)
		scalarDelta := consumer.SnapshotAndReset()

		ctx := seq.NewBatchCtx()
		ctx.Size = 3
		got := drainBatches(t, wrapped.ScanBatches(span, ctx))
		batchDelta := consumer.SnapshotAndReset()

		if !eqEntries(got, want) {
			t.Fatalf("%v: metered batch entries %v, scalar %v", kind, got, want)
		}
		if scalarDelta != batchDelta {
			t.Fatalf("%v: metered batch credited %+v, scalar %+v", kind, batchDelta, scalarDelta)
		}
		if batchDelta.SeqRecords == 0 {
			t.Fatalf("%v: metered batch scan credited no records", kind)
		}
		if shared := st.Stats().Snapshot(); shared != (StatsSnapshot{}) {
			t.Fatalf("%v: fork accesses reached the shared block: %+v", kind, shared)
		}
	}
}

// TestBatchCounterFlushGranularity pins the optimization the batch
// cursors exist for: a multi-batch dense scan performs one atomic Add
// per counter per batch, not per record — observable as the counters
// only ever advancing in batch-sized strides. We approximate this by
// snapshotting between NextBatch calls.
func TestBatchCounterFlushGranularity(t *testing.T) {
	d := mkStore(t, KindDense, mkEntries(1, 2, 3, 4, 5, 6, 7, 8), seq.EmptySpan, 2)
	d.Stats().Reset()
	ctx := seq.NewBatchCtx()
	ctx.Size = 4
	cur := d.ScanBatches(seq.NewSpan(1, 8), ctx)
	defer cur.Close()
	prev := d.Stats().Snapshot()
	for {
		b, ok := cur.NextBatch()
		if !ok {
			break
		}
		now := d.Stats().Snapshot()
		delta := now.Sub(prev)
		if delta.SeqRecords != int64(b.ValidRows()) {
			t.Fatalf("batch of %d rows flushed %d record counts", b.ValidRows(), delta.SeqRecords)
		}
		prev = now
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
}
