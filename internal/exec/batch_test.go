package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/seq"
	"repro/internal/storage"
)

// probeAnswer is the plan's answer over span by probed access (§3.3):
// RunProbes at every position of span within the plan's own span. No
// operator's Probe shares code with its batch cursor, so it is the
// reference the stream access is checked against.
func probeAnswer(t *testing.T, p Plan, span seq.Span) []seq.Entry {
	t.Helper()
	span = span.Intersect(p.Info().Span)
	var positions []seq.Pos
	for pos := span.Start; !span.IsEmpty() && pos <= span.End; pos++ {
		positions = append(positions, pos)
	}
	want, err := RunProbes(p, positions)
	if err != nil {
		t.Fatalf("probes: %v", err)
	}
	return want
}

// runSized runs the plan over span on batches of the given size.
func runSized(t *testing.T, p Plan, span seq.Span, size int) []seq.Entry {
	t.Helper()
	ctx := seq.NewBatchCtx()
	ctx.Size = size
	got, err := Run(p, span, ctx)
	if err != nil {
		t.Fatalf("batch run (size %d): %v", size, err)
	}
	return got.Entries()
}

// sameEntries requires record-for-record agreement, floats bit for bit
// (NaN equal to NaN).
func sameEntries(t *testing.T, what string, got, want []seq.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i].Pos != got[i].Pos {
			t.Fatalf("%s: row %d at %d, want %d", what, i, got[i].Pos, want[i].Pos)
		}
		if !want[i].Rec.Equal(got[i].Rec) {
			t.Fatalf("%s: %v at %d, want %v", what, got[i].Rec, want[i].Pos, want[i].Rec)
		}
	}
}

// batchVsProbes runs the plan over span with the given batch size, and
// drains its row scan (Run without a context), and requires both to
// agree with the probed answer.
func batchVsProbes(t *testing.T, p Plan, span seq.Span, size int) {
	t.Helper()
	want := probeAnswer(t, p, span)
	sameEntries(t, fmt.Sprintf("batch run (size %d)", size), runSized(t, p, span, size), want)
	rows, err := Run(p, span, nil)
	if err != nil {
		t.Fatalf("row scan: %v", err)
	}
	sameEntries(t, "row scan", rows.Entries(), want)
}

// batchSizes stresses the tiling: single-row batches, sub-span batches,
// and batches bigger than the whole span.
var batchSizes = []int{1, 3, 7, 4096}

func testAllSizes(t *testing.T, p Plan, span seq.Span) {
	t.Helper()
	for _, size := range batchSizes {
		batchVsProbes(t, p, span, size)
	}
}

func TestSearchPosFrom(t *testing.T) {
	s := []seq.Pos{2, 4, 6, 8, 100, 101, 102, 500}
	cases := []struct {
		lo     int
		target seq.Pos
		want   int
	}{
		{0, 1, 0}, {0, 2, 0}, {0, 3, 1}, {1, 5, 2},
		{1, 100, 4}, // long gallop across the gap
		{4, 102, 6}, // short hop inside the dense run
		{0, 501, 8}, // past the end
		{8, 1, 8},   // lo at len
		{3, 8, 3},   // immediate hit, no gallop
	}
	for _, c := range cases {
		if got := searchPosFrom(s, c.lo, c.target); got != c.want {
			t.Errorf("searchPosFrom(s, %d, %d) = %d, want %d", c.lo, c.target, got, c.want)
		}
	}
	// Exhaustive cross-check against a linear scan.
	for lo := 0; lo <= len(s); lo++ {
		for target := seq.Pos(0); target <= 501; target++ {
			want := lo
			for want < len(s) && s[want] < target {
				want++
			}
			if got := searchPosFrom(s, lo, target); got != want {
				t.Fatalf("searchPosFrom(s, %d, %d) = %d, want %d", lo, target, got, want)
			}
		}
	}
}

func TestBatchLeafSparseAndDense(t *testing.T) {
	data := mkSeq(t, map[seq.Pos]float64{1: 10, 2: 20, 4: 40, 5: 50, 7: 70, 8: 80, 11: 110})
	for _, kind := range []storage.Kind{storage.KindSparse, storage.KindDense} {
		st, err := storage.FromMaterialized(data, kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		testAllSizes(t, NewLeaf("s", st, seq.AllSpan), seq.NewSpan(0, 12))
		// Sub-batch span, single-position span, and miss-everything span.
		testAllSizes(t, NewLeaf("s", st, seq.AllSpan), seq.NewSpan(4, 5))
		testAllSizes(t, NewLeaf("s", st, seq.AllSpan), seq.NewSpan(7, 7))
		testAllSizes(t, NewLeaf("s", st, seq.AllSpan), seq.NewSpan(20, 30))
	}
}

func TestBatchEmptySpan(t *testing.T) {
	p := leaf(t, map[seq.Pos]float64{1: 1, 2: 2})
	ctx := seq.NewBatchCtx()
	got, err := Run(p, seq.EmptySpan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Fatalf("empty span returned %d rows", got.Count())
	}
}

func TestBatchSelectVectorizedAndFallback(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 5, 2: 9, 3: 2, 4: 7, 6: 1, 7: 8})
	// Vectorizable predicate: close > 4.
	testAllSizes(t, NewSelect(in, gt(t, closeSchema, "close", 4)), seq.NewSpan(0, 10))
	// Call forces the scalar row fallback inside the batch select.
	c, _ := expr.NewCol(closeSchema, "close")
	call, err := expr.NewCall(expr.FnAbs, []expr.Expr{c})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.NewBin(expr.OpGt, call, expr.Literal(seq.Float(4)))
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, NewSelect(in, pred), seq.NewSpan(0, 10))
}

func TestBatchSelectAllFilteredValidity(t *testing.T) {
	// A predicate nothing satisfies: batches flow with every validity
	// bit cleared and the run yields no rows.
	in := leaf(t, map[seq.Pos]float64{1: 1, 2: 2, 3: 3})
	p := NewSelect(in, gt(t, closeSchema, "close", 100))
	ctx := seq.NewBatchCtx()
	ctx.Size = 2
	cur := BatchScanOf(p, seq.NewSpan(1, 3), ctx)
	defer cur.Close()
	sawRows := false
	for {
		b, ok := cur.NextBatch()
		if !ok {
			break
		}
		if b.Rows() > 0 {
			sawRows = true
		}
		if b.ValidRows() != 0 {
			t.Fatalf("all-filtered batch still has %d valid rows", b.ValidRows())
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawRows {
		t.Fatal("expected invalidated rows to flow through the batch stream")
	}
	testAllSizes(t, p, seq.NewSpan(1, 3))
}

func TestBatchProjectAliasCompiledFallback(t *testing.T) {
	schema := seq.MustSchema(
		seq.Field{Name: "close", Type: seq.TFloat},
		seq.Field{Name: "volume", Type: seq.TInt},
	)
	es := []seq.Entry{
		{Pos: 1, Rec: seq.Record{seq.Float(1.5), seq.Int(10)}},
		{Pos: 2, Rec: seq.Record{seq.Float(2.5), seq.Int(20)}},
		{Pos: 4, Rec: seq.Record{seq.Float(4.5), seq.Int(40)}},
		{Pos: 5, Rec: seq.Record{seq.Float(-5.5), seq.Int(3)}},
	}
	in := NewLeaf("s", seq.MustMaterialized(schema, es), seq.AllSpan)
	cl, _ := expr.NewCol(schema, "close")
	vol, _ := expr.NewCol(schema, "volume")
	dbl, _ := expr.NewBin(expr.OpMul, cl, expr.Literal(seq.Float(2)))
	abs, _ := expr.NewCall(expr.FnAbs, []expr.Expr{cl})
	p, err := NewProject(in, []ProjExpr{
		{Expr: vol, Name: "v"},     // column alias
		{Expr: dbl, Name: "twice"}, // compiled vector expression
		{Expr: abs, Name: "mag"},   // scalar fallback (Call)
		{Expr: cl, Name: "close2"}, // second alias of the same input
	})
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, p, seq.NewSpan(0, 6))
}

func TestBatchProjectErrorParity(t *testing.T) {
	// Integer division by zero must fail with the error a probe of the
	// first row reports, on the batch plane and in the row scan (the
	// fallback walks rows in position order, so the first failing row
	// is the one reported).
	schema := seq.MustSchema(seq.Field{Name: "n", Type: seq.TInt})
	es := []seq.Entry{
		{Pos: 1, Rec: seq.Record{seq.Int(10)}},
		{Pos: 2, Rec: seq.Record{seq.Int(20)}},
	}
	in := NewLeaf("s", seq.MustMaterialized(schema, es), seq.AllSpan)
	n, _ := expr.NewCol(schema, "n")
	div, err := expr.NewBin(expr.OpDiv, n, expr.Literal(seq.Int(0)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(in, []ProjExpr{{Expr: div, Name: "boom"}})
	if err != nil {
		t.Fatal(err)
	}
	_, perr := p.Probe(1)
	if perr == nil {
		t.Fatal("probe must fail on integer division by zero")
	}
	for _, ctx := range []*seq.BatchCtx{seq.NewBatchCtx(), nil} {
		_, err := Run(p, seq.NewSpan(0, 5), ctx)
		if err == nil || err.Error() != perr.Error() {
			t.Fatalf("run (context %v) error %v, probe error %v", ctx != nil, err, perr)
		}
	}
}

func TestBatchPosOffset(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 10, 3: 30, 5: 50, 6: 60})
	for _, off := range []int64{-3, -1, 1, 4} {
		testAllSizes(t, NewPosOffset(in, off), seq.NewSpan(-2, 10))
	}
}

func TestBatchValueOffset(t *testing.T) {
	pairs := map[seq.Pos]float64{1: 10, 2: 20, 4: 40, 5: 50, 7: 70, 8: 80, 10: 100}
	for _, off := range []int64{-3, -1, 1, 2} {
		in := leaf(t, pairs)
		vo, err := NewValueOffsetIncremental(in, off, seq.NewSpan(0, 12))
		if err != nil {
			t.Fatal(err)
		}
		testAllSizes(t, vo, seq.NewSpan(0, 12))
		// Sub-spans force history walks before the requested start.
		testAllSizes(t, vo, seq.NewSpan(6, 9))
	}
}

func TestBatchAggSlidingAndCumulative(t *testing.T) {
	nan := math.NaN()
	inputs := []map[seq.Pos]float64{
		{1: 1.5, 2: 2.25, 4: 4.75, 5: 5.5, 7: 7.125, 9: 9.875},
		// Compare calls NaN equal to everything, and a sliding sum keeps
		// a NaN it has subtracted, so sliding sums and extremes here
		// differ from the probed answers (DESIGN.md, "O(1)
		// sliding-window aggregates"); no batch size may change them.
		{1: 1, 2: nan, 3: 2, 4: nan, 5: nan, 6: 3, 7: -1, 9: nan},
	}
	check := func(p Plan, span seq.Span, probed bool) {
		t.Helper()
		if probed {
			testAllSizes(t, p, span)
			return
		}
		want := runSized(t, p, span, seq.DefaultBatchSize)
		for _, size := range batchSizes {
			sameEntries(t, fmt.Sprintf("%s size %d", p.Label(), size), runSized(t, p, span, size), want)
		}
	}
	funcs := []algebra.AggFunc{algebra.AggSum, algebra.AggAvg, algebra.AggMin, algebra.AggMax, algebra.AggCount}
	for k, pairs := range inputs {
		for _, fn := range funcs {
			in := leaf(t, pairs)
			spec := algebra.AggSpec{Func: fn, Arg: 0, Window: algebra.Trailing(3), As: "a"}
			agg, err := NewAggSliding(in, spec, seq.NewSpan(1, 10))
			if err != nil {
				t.Fatal(err)
			}
			check(agg, seq.NewSpan(1, 10), k == 0)

			in2 := leaf(t, pairs)
			cspec := algebra.AggSpec{Func: fn, Arg: 0, Window: algebra.Window{LoUnbounded: true}, As: "a"}
			cum, err := NewAggCumulative(in2, cspec, seq.NewSpan(1, 10))
			if err != nil {
				t.Fatal(err)
			}
			check(cum, seq.NewSpan(1, 10), k == 0)
		}
	}
	// Centered window (Lo < 0 < Hi).
	in := leaf(t, inputs[0])
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Range(-2, 2), As: "a"}
	agg, err := NewAggSliding(in, spec, seq.NewSpan(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, agg, seq.NewSpan(1, 10))
}

func TestBatchComposeStrategies(t *testing.T) {
	lp := map[seq.Pos]float64{1: 10, 2: 20, 3: 30, 5: 50, 7: 70, 9: 90}
	rp := map[seq.Pos]float64{2: 19, 3: 31, 5: 10, 7: 70, 8: 80}
	for _, p := range composePlans(t, lp, rp, 0) {
		testAllSizes(t, p, seq.NewSpan(0, 10))
	}
	// Compose without a predicate (pure positional join).
	schema, err := closeSchema.Concat(closeSchema, "l", "r")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ComposeStrategy{ComposeLockStep, ComposeStreamLeft, ComposeStreamRight} {
		c, err := NewCompose(NewLeaf("l", mkSeq(t, lp), seq.AllSpan), NewLeaf("r", mkSeq(t, rp), seq.AllSpan), nil, schema, s)
		if err != nil {
			t.Fatal(err)
		}
		testAllSizes(t, c, seq.NewSpan(0, 10))
	}
}

func TestBatchAdapterOperators(t *testing.T) {
	// Operators without native batch support run through the adapter:
	// collapse, expand, naive aggregates, naive value offsets.
	pairs := map[seq.Pos]float64{0: 1, 1: 2, 2: 3, 4: 5, 5: 6, 7: 8, 8: 9}
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(2), As: "a"}

	col, err := NewCollapse(leaf(t, pairs), 3, algebra.AggSpec{Func: algebra.AggSum, Arg: 0, As: "g"}, seq.NewSpan(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, col, seq.NewSpan(0, 3))

	exp, err := NewExpand(leaf(t, pairs), 2, seq.NewSpan(0, 17))
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, exp, seq.NewSpan(0, 17))

	naive, err := NewAggNaive(leaf(t, pairs), spec, seq.NewSpan(0, 9))
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, naive, seq.NewSpan(0, 9))

	cached, err := NewAggCached(leaf(t, pairs), spec, seq.NewSpan(0, 9))
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, cached, seq.NewSpan(0, 9))

	von, err := NewValueOffsetNaive(leaf(t, pairs), -1, seq.NewSpan(0, 9))
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, von, seq.NewSpan(0, 9))
}

func TestBatchMaterializeAndRename(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 1, 2: 2, 5: 5, 8: 8})
	m, err := NewMaterialize(NewSelect(in, gt(t, closeSchema, "close", 1)), seq.NewSpan(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, m, seq.NewSpan(0, 10))

	rs := seq.MustSchema(seq.Field{Name: "px", Type: seq.TFloat})
	rn, err := NewRename(leaf(t, map[seq.Pos]float64{1: 1, 3: 3}), rs)
	if err != nil {
		t.Fatal(err)
	}
	testAllSizes(t, rn, seq.NewSpan(0, 5))
}

// TestBatchConcat splices two leaves at a boundary: the left leg's
// batches, then the right's, must tile the scan without gap or overlap —
// also where the left leg's data stops short of the boundary — and
// answer as the position-routed probes do, whichever side of the
// boundary the span lies on.
func TestBatchConcat(t *testing.T) {
	left := map[seq.Pos]float64{1: 1, 3: 3, 5: 5, 6: 60, 8: 80}
	right := map[seq.Pos]float64{2: -2, 5: -5, 6: 6, 7: 7, 9: 9, 11: 11}
	for boundary, want := range map[seq.Pos]map[seq.Pos]float64{
		5: {1: 1, 3: 3, 5: 5, 6: 6, 7: 7, 9: 9, 11: 11},
		9: {1: 1, 3: 3, 5: 5, 6: 60, 8: 80, 11: 11},
	} {
		c, err := NewConcat(leaf(t, left), leaf(t, right), boundary)
		if err != nil {
			t.Fatal(err)
		}
		wantMap(t, runPlan(t, c, seq.NewSpan(0, 12)), want)
		for _, span := range []seq.Span{seq.NewSpan(0, 12), seq.NewSpan(1, 5), seq.NewSpan(6, 9), seq.NewSpan(5, 10)} {
			testAllSizes(t, c, span)
			for _, size := range batchSizes {
				ctx := seq.NewBatchCtx()
				ctx.Size = size
				cur := BatchScanOf(c, span, ctx)
				prev := seq.EmptySpan
				for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
					if !prev.IsEmpty() && b.Span.Start != prev.End+1 {
						t.Fatalf("concat@%d over %v, size %d: batch %v follows %v", boundary, span, size, b.Span, prev)
					}
					prev = b.Span
				}
				if err := cur.Close(); err != nil || cur.Err() != nil {
					t.Fatal(err, cur.Err())
				}
			}
		}
	}
}

// TestBatchMVCCPageVersionStraddle scans an MVCC snapshot whose pages
// carry multiple versions (appends across epochs rewrote page tails)
// with batches smaller than a page, so batch boundaries straddle
// page-version boundaries. The snapshot bridges through the adapter;
// its answers must match its probed ones at every epoch.
func TestBatchMVCCPageVersionStraddle(t *testing.T) {
	base := make([]seq.Entry, 0, 8)
	for p := seq.Pos(1); p <= 8; p++ {
		base = append(base, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p) * 10)}})
	}
	v, err := storage.NewVersioned(seq.MustMaterialized(closeSchema, base), storage.KindSparse, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Appends at later epochs create fresh page versions past the base.
	for i, p := range []seq.Pos{9, 10, 11, 12, 13} {
		if err := v.Append(seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p) * 10)}}, int64(2+i)); err != nil {
			t.Fatal(err)
		}
	}
	if v.PageVersions() <= v.Versions() {
		t.Logf("page versions %d, versions %d", v.PageVersions(), v.Versions())
	}
	for epoch := int64(1); epoch <= 6; epoch++ {
		snap := v.SnapshotAt(epoch)
		l := NewLeaf("v", snap, seq.AllSpan)
		for _, size := range []int{1, 2, 3, 4096} {
			batchVsProbes(t, l, seq.NewSpan(1, 13), size)
		}
	}
}

// TestBatchMeteredCounters checks the instrumented counters of a batch
// run: batch tallies appear on every converted node, row counters stay
// comparable with a row-by-row drain of the root (Run without a
// context), and the storage page accounting is identical between the
// two. Below the root, the row drain runs batched too.
func TestBatchMeteredCounters(t *testing.T) {
	build := func() (Plan, *storage.Stats) {
		st, err := storage.FromMaterialized(
			mkSeq(t, map[seq.Pos]float64{1: 10, 2: 20, 4: 40, 5: 50, 7: 70, 8: 80}),
			storage.KindSparse, 2)
		if err != nil {
			t.Fatal(err)
		}
		return NewSelect(NewLeaf("s", st, seq.AllSpan), gt(t, closeSchema, "close", 15)), st.Stats()
	}
	span := seq.NewSpan(1, 10)

	sp, sstats := build()
	sinstr, sroot := mustInstrument(t, sp)
	if _, err := Run(sinstr, span, nil); err != nil {
		t.Fatal(err)
	}
	sroot.Finalize()
	rowPages := sstats.Snapshot()

	bp, bstats := build()
	binstr, broot := mustInstrument(t, bp)
	ctx := seq.NewBatchCtx()
	ctx.Size = 2
	if _, err := Run(binstr, span, ctx); err != nil {
		t.Fatal(err)
	}
	broot.Finalize()
	batchPages := bstats.Snapshot()

	if rowPages != batchPages {
		t.Errorf("page accounting differs: row drain %v, batch %v", rowPages, batchPages)
	}
	sroot.Labels()
	broot.Labels()
	var walk func(a, b *NodeMetrics)
	walk = func(a, b *NodeMetrics) {
		if a.ScanRows != b.ScanRows {
			t.Errorf("%s: row-drain rows %d, batch rows %d", a.Label, a.ScanRows, b.ScanRows)
		}
		if b.Batches == 0 || b.BatchCalls == 0 {
			t.Errorf("%s: batch run recorded no batches (calls=%d batches=%d)", b.Label, b.BatchCalls, b.Batches)
		}
		if b.BatchRows != b.ScanRows {
			t.Errorf("%s: batch rows %d disagree with scan rows %d", b.Label, b.BatchRows, b.ScanRows)
		}
		for i := range a.Children {
			walk(a.Children[i], b.Children[i])
		}
	}
	walk(sroot, broot)
	if sroot.Batches != 0 {
		t.Errorf("%s: the row drain's root recorded %d batches", sroot.Label, sroot.Batches)
	}
	if ctx.Batches == 0 {
		t.Error("root collector consumed no batches")
	}
}

// TestClonePlanBatchIsolation is the batch side of the clone-isolation
// contract: clones evaluated under separate batch contexts own separate
// intern tables and fresh adapter state, so interleaved batch runs of
// the original and the clone cannot corrupt each other.
func TestClonePlanBatchIsolation(t *testing.T) {
	schema := seq.MustSchema(
		seq.Field{Name: "sym", Type: seq.TString},
		seq.Field{Name: "px", Type: seq.TFloat},
	)
	syms := []string{"alpha", "beta", "gamma"}
	es := make([]seq.Entry, 0, 30)
	for p := seq.Pos(1); p <= 30; p++ {
		es = append(es, seq.Entry{Pos: p, Rec: seq.Record{
			seq.Str(syms[int(p)%len(syms)]), seq.Float(float64(p)),
		}})
	}
	st, err := storage.FromMaterialized(seq.MustMaterialized(schema, es), storage.KindSparse, 4)
	if err != nil {
		t.Fatal(err)
	}
	px, _ := expr.NewCol(schema, "px")
	pred, err := expr.NewBin(expr.OpGt, px, expr.Literal(seq.Float(3)))
	if err != nil {
		t.Fatal(err)
	}
	p := NewSelect(NewLeaf("s", st, seq.AllSpan), pred)
	span := seq.NewSpan(1, 30)

	cp, err := ClonePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	ctxA, ctxB := seq.NewBatchCtx(), seq.NewBatchCtx()
	ctxA.Size, ctxB.Size = 4, 4
	if ctxA.Intern == ctxB.Intern {
		t.Fatal("fresh batch contexts share an intern table")
	}
	// Interleave the two batch streams: each cursor carries its own
	// adapter state and interns into its own table.
	curA := BatchScanOf(p, span, ctxA)
	curB := BatchScanOf(cp, span, ctxB)
	defer curA.Close()
	defer curB.Close()
	var rowsA, rowsB []seq.Entry
	for {
		a, aok := curA.NextBatch()
		if aok {
			rowsA = a.AppendEntries(rowsA, ctxA.Intern)
		}
		b, bok := curB.NextBatch()
		if bok {
			rowsB = b.AppendEntries(rowsB, ctxB.Intern)
		}
		if !aok && !bok {
			break
		}
	}
	if err := curA.Err(); err != nil {
		t.Fatal(err)
	}
	if err := curB.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rowsA) == 0 || len(rowsA) != len(rowsB) {
		t.Fatalf("interleaved streams disagree: %d vs %d rows", len(rowsA), len(rowsB))
	}
	for i := range rowsA {
		if rowsA[i].Pos != rowsB[i].Pos || rowsA[i].Rec[0].AsStr() != rowsB[i].Rec[0].AsStr() {
			t.Fatalf("row %d: original %v, clone %v", i, rowsA[i], rowsB[i])
		}
	}
	// Both tables interned the symbols independently.
	as, bs := ctxA.Intern.Stats(), ctxB.Intern.Stats()
	if as.StrMisses == 0 || bs.StrMisses == 0 {
		t.Errorf("no interning happened: %+v / %+v", as, bs)
	}
	if as.StrHits == 0 || bs.StrHits == 0 {
		t.Errorf("repeated symbols never hit: %+v / %+v", as, bs)
	}
	// The probed answer still matches after all that.
	batchVsProbes(t, p, span, 4)
	batchVsProbes(t, cp, span, 4)
}

func TestBatchStringInterning(t *testing.T) {
	schema := seq.MustSchema(
		seq.Field{Name: "sym", Type: seq.TString},
		seq.Field{Name: "px", Type: seq.TFloat},
	)
	es := make([]seq.Entry, 0, 100)
	for p := seq.Pos(1); p <= 100; p++ {
		sym := "hot"
		if p%10 == 0 {
			sym = "cold"
		}
		es = append(es, seq.Entry{Pos: p, Rec: seq.Record{seq.Str(sym), seq.Float(float64(p))}})
	}
	in := NewLeaf("s", seq.MustMaterialized(schema, es), seq.AllSpan)
	sym, _ := expr.NewCol(schema, "sym")
	pred, err := expr.NewBin(expr.OpEq, sym, expr.Literal(seq.Str("hot")))
	if err != nil {
		t.Fatal(err)
	}
	p := NewSelect(in, pred)
	span := seq.NewSpan(1, 100)

	ctx := seq.NewBatchCtx()
	got, err := Run(p, span, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 90 {
		t.Fatalf("batch %d rows, want the 90 hot ones", got.Count())
	}
	st := ctx.Intern.Stats()
	if st.StrMisses != 2 {
		t.Errorf("distinct symbols interned = %d, want 2 (stats %+v)", st.StrMisses, st)
	}
	if st.StrHits < 90 {
		t.Errorf("intern hits = %d, want ~98 on a 2-symbol column (stats %+v)", st.StrHits, st)
	}
	if !strings.Contains("hot", got.Entries()[0].Rec[0].AsStr()) {
		t.Errorf("decoded symbol %q", got.Entries()[0].Rec[0].AsStr())
	}
}

func TestBatchModeString(t *testing.T) {
	if !BatchAuto.Enabled() || BatchOff.Enabled() {
		t.Error("enabled flags wrong")
	}
}
