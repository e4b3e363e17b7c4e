package parallel

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/seq"
	"repro/internal/storage"
)

var symSchema = seq.MustSchema(
	seq.Field{Name: "sym", Type: seq.TString},
	seq.Field{Name: "v", Type: seq.TFloat},
)

// symPlan is a select over a high-duplication string store: every worker
// interns the same handful of symbols into its private table, which is
// what the -race runs of this file are after.
func symPlan(t *testing.T, n int64) exec.Plan {
	t.Helper()
	syms := []string{"aa", "bb", "cc"}
	var es []seq.Entry
	for p := int64(1); p <= n; p++ {
		es = append(es, seq.Entry{Pos: p, Rec: seq.Record{
			seq.Str(syms[int(p)%len(syms)]), seq.Float(float64(p)),
		}})
	}
	m, err := seq.NewMaterialized(symSchema, es)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.FromMaterialized(m, storage.KindSparse, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := expr.NewCol(symSchema, "v")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.NewBin(expr.OpGt, v, expr.Literal(seq.Float(2)))
	if err != nil {
		t.Fatal(err)
	}
	return exec.NewSelect(exec.NewLeaf("s", st, seq.AllSpan), pred)
}

func TestRunBatchMatchesRun(t *testing.T) {
	n := int64(4096)
	span := seq.NewSpan(1, n)
	for _, k := range []int{2, 3, 7} {
		p, node := fixture(t, n)
		want := probed(t, p, span)
		d, err := ForceK(p, node, span, k)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, _, err := Run(p, span, d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		entriesEqual(t, rows.Entries(), want)
		ctx := seq.NewBatchCtx()
		got, _, _, err := Run(p, span, d, nil, ctx)
		if err != nil {
			t.Fatal(err)
		}
		entriesEqual(t, got.Entries(), want)
		if ctx.Batches == 0 || ctx.Rows == 0 {
			t.Fatalf("K=%d: no batch counters absorbed (batches=%d rows=%d)", k, ctx.Batches, ctx.Rows)
		}
	}
}

func TestRunBatchInternPrivacy(t *testing.T) {
	// Workers intern concurrently into forked tables; run it a few times
	// so the -race job in CI gets real interleavings to bite on.
	n := int64(2048)
	span := seq.NewSpan(1, n)
	p := symPlan(t, n)
	want := probed(t, p, span)
	d, err := ForceK(p, planNodes{}.node, span, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ctx := seq.NewBatchCtx()
		got, _, _, err := Run(p, span, d, nil, ctx)
		if err != nil {
			t.Fatal(err)
		}
		entriesEqual(t, got.Entries(), want)
		st := ctx.Intern.Stats()
		// 3 distinct symbols per worker table, 4 workers.
		if st.StrMisses != 12 {
			t.Fatalf("run %d: %d intern misses across forks, want 12 (stats %+v)", i, st.StrMisses, st)
		}
		if st.StrHits == 0 {
			t.Fatalf("run %d: no intern hits on a 3-symbol column", i)
		}
	}
}

func TestRunAnalyzeBatchPartitions(t *testing.T) {
	n := int64(4096)
	p, node := fixture(t, n)
	span := seq.NewSpan(1, n)
	d, err := ForceK(p, node, span, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := probed(t, p, span)
	ctx := seq.NewBatchCtx()
	out, root, parts, err := Run(p, span, d, nil, ctx)
	if err != nil {
		t.Fatal(err)
	}
	entriesEqual(t, out.Entries(), want)
	if len(parts) != 3 {
		t.Fatalf("got %d partition records", len(parts))
	}
	var rows int64
	for i, pm := range parts {
		if pm.Span != d.Partitions[i] {
			t.Errorf("partition %d span %s, want %s", i, pm.Span, d.Partitions[i])
		}
		rows += pm.Rows
	}
	if rows != int64(out.Count()) {
		t.Errorf("partition rows sum %d, output rows %d", rows, out.Count())
	}
	if root == nil {
		t.Fatal("no merged metrics root")
	}
	if root.Batches == 0 || root.BatchRows == 0 {
		t.Errorf("merged root recorded no batches (batches=%d rows=%d)", root.Batches, root.BatchRows)
	}
	if ctx.Batches == 0 || ctx.Rows != int64(out.Count()) {
		t.Errorf("run counters batches=%d rows=%d, output rows %d", ctx.Batches, ctx.Rows, out.Count())
	}
	// A serial decision runs one instrumented copy and reports no
	// partitions.
	out, root, parts, err = Run(p, span, &Decision{}, nil, seq.NewBatchCtx())
	if err != nil {
		t.Fatal(err)
	}
	entriesEqual(t, out.Entries(), want)
	if parts != nil || root == nil || root.Batches == 0 || root.ScanCalls != 1 {
		t.Errorf("serial run: %d partitions, root %+v", len(parts), root)
	}
}
