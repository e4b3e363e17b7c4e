package storage

import (
	"testing"

	"repro/internal/seq"
)

// drainBatches consumes a batch cursor and returns the valid positions.
func drainBatches(t *testing.T, cur seq.BatchCursor) []seq.Pos {
	t.Helper()
	defer cur.Close()
	var out []seq.Pos
	for {
		b, ok := cur.NextBatch()
		if !ok {
			break
		}
		for i := 0; i < b.Rows(); i++ {
			if b.Valid.Get(i) {
				out = append(out, b.Pos[i])
			}
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkBatchStatsParity scans the store through both planes over the
// same span and requires identical positions AND identical page/record
// accounting: the batch cursors flush their locally accumulated
// counters batch by batch, but the totals must be position-for-position
// what the scalar cursor would have charged.
func checkBatchStatsParity(t *testing.T, st Store, span seq.Span, size int) {
	t.Helper()
	st.Stats().Reset()
	want := scanPositions(t, st, span)
	scalarDelta := st.Stats().SnapshotAndReset()

	bs, ok := st.(seq.BatchScanner)
	if !ok {
		t.Fatalf("%T does not implement seq.BatchScanner", st)
	}
	ctx := seq.NewBatchCtx()
	ctx.Size = size
	got := drainBatches(t, bs.ScanBatches(span, ctx))
	batchDelta := st.Stats().SnapshotAndReset()

	if !eqPos(got, want) {
		t.Fatalf("span %v size %d: batch positions %v, scalar %v", span, size, got, want)
	}
	if scalarDelta != batchDelta {
		t.Fatalf("span %v size %d: batch accounting %+v, scalar %+v", span, size, batchDelta, scalarDelta)
	}
}

func TestDenseBatchScanStatsParity(t *testing.T) {
	d := mkStore(t, KindDense, mkEntries(1, 3, 5, 6, 8, 9, 12), seq.EmptySpan, 2)
	spans := []seq.Span{
		seq.NewSpan(-5, 20), // superset: dense narrows at open
		seq.NewSpan(1, 12),  // exact
		seq.NewSpan(4, 9),   // interior, starts on an empty slot
		seq.NewSpan(6, 6),   // single position
		seq.NewSpan(13, 20), // entirely past the data
	}
	for _, span := range spans {
		for _, size := range []int{1, 2, 3, 4096} {
			checkBatchStatsParity(t, d, span, size)
		}
	}
}

func TestSparseBatchScanStatsParity(t *testing.T) {
	s := mkStore(t, KindSparse, mkEntries(1, 3, 5, 6, 8, 9, 12, 20, 21, 30), seq.EmptySpan, 2)
	spans := []seq.Span{
		seq.NewSpan(-5, 40), // full range from before the first record
		seq.NewSpan(1, 30),  // exact
		seq.NewSpan(5, 21),  // mid-span start: charges the binary-search probe
		seq.NewSpan(7, 7),   // misses every record
		seq.NewSpan(10, 11), // in the gap behind a page's last record
		seq.NewSpan(31, 40), // past the data
	}
	for _, span := range spans {
		for _, size := range []int{1, 2, 4, 4096} {
			checkBatchStatsParity(t, s, span, size)
		}
	}
}

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
				checkBatchStatsParity(t, st, span, size)
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

// TestMeteredBatchDelegation checks both metered paths: a batch-capable
// inner store is scanned natively with the consumer credited per batch,
// and the credited deltas equal what the scalar metered scan charges.
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
		wrapped := Metered(st, consumer)
		want := scanPositions(t, wrapped, span)
		scalarDelta := consumer.SnapshotAndReset()

		bs, ok := wrapped.(seq.BatchScanner)
		if !ok {
			t.Fatalf("metered %v store does not implement seq.BatchScanner", kind)
		}
		ctx := seq.NewBatchCtx()
		ctx.Size = 3
		got := drainBatches(t, bs.ScanBatches(span, ctx))
		batchDelta := consumer.SnapshotAndReset()

		if !eqPos(got, want) {
			t.Fatalf("%v: metered batch positions %v, scalar %v", kind, got, want)
		}
		if scalarDelta != batchDelta {
			t.Fatalf("%v: metered batch credited %+v, scalar %+v", kind, batchDelta, scalarDelta)
		}
		if batchDelta.SeqRecords == 0 {
			t.Fatalf("%v: metered batch scan credited no records", kind)
		}
	}
}

// scalarOnly hides a store's batch interface, standing in for the
// stores that have none (the disk-backed snapshots).
type scalarOnly struct{ Store }

// TestMeteredBatchAdapterFallback routes a non-batch-capable inner
// store through the metered wrapper's adapter path and checks the
// per-record crediting still matches the scalar scan.
func TestMeteredBatchAdapterFallback(t *testing.T) {
	inner := scalarOnly{mkStore(t, KindSparse, mkEntries(1, 3, 5, 6, 8), seq.EmptySpan, 2)}
	span := seq.NewSpan(1, 8)

	consumer := &Stats{}
	wrapped := Metered(inner, consumer)
	want := scanPositions(t, wrapped, span)
	scalarDelta := consumer.SnapshotAndReset()

	bs, ok := wrapped.(seq.BatchScanner)
	if !ok {
		t.Fatal("metered wrapper lost its batch interface")
	}
	ctx := seq.NewBatchCtx()
	ctx.Size = 2
	got := drainBatches(t, bs.ScanBatches(span, ctx))
	batchDelta := consumer.SnapshotAndReset()

	if !eqPos(got, want) {
		t.Fatalf("adapter batch positions %v, scalar %v", got, want)
	}
	if scalarDelta != batchDelta {
		t.Fatalf("adapter batch credited %+v, scalar %+v", batchDelta, scalarDelta)
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
