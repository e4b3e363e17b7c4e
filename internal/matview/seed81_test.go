// Regression test for differential-fuzz seed 81: a collapse(count, k=3)
// query over a materialized voffset(-2)-over-select-over-voffset(+1)
// block returned 61 rows where the reference evaluation returns 58.
//
// The defect: the view block's inner voffset(+1) gives the selection
// input non-Null records at every position below the base start, so the
// outer voffset(-2)'s backward walk is stopped only by the evaluation
// universe — the block is universe-sensitive (algebra.UniverseSensitive).
// The view was materialized under the universe of one evaluation and
// substituted into a query planned under another, and the two disagree
// near the data edges (three extra collapse groups).
//
// The fix refuses registration of universe-sensitive blocks, so this
// test passes either way it resolves: registration refused (fixed), or
// registration accepted AND the substituted plan agrees record-for-record
// with the reference (which the old code fails).
package matview_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/seq"
	"repro/internal/testgen"
)

// seed81Query rebuilds the exact seed-81 shape over a hand-copied base:
//
//	collapse(count(volume), k=3) as g
//	  voffset(-2)
//	    select((close >= 12))
//	      voffset(+1)
//	        base(b1)
//
// Returns the query root and the voffset(-2) sub-block the fuzz run
// materialized as a view.
func seed81Query(t *testing.T) (query, block *algebra.Node) {
	t.Helper()
	schema := seq.MustSchema(
		seq.Field{Name: "close", Type: seq.TFloat},
		seq.Field{Name: "volume", Type: seq.TInt},
	)
	rows := []struct {
		pos    int64
		close  float64
		volume int64
	}{
		{1, 24.25, 48}, {3, 3.5, 25}, {4, 3, 14}, {6, 11.75, 38},
		{8, 0.5, 17}, {9, 15, 22}, {11, 10, 25}, {14, 13, 19},
		{15, 16.25, 9}, {17, 2, 34}, {19, 14.25, 18}, {20, 0, 18},
		{22, 23.5, 40}, {24, 10.75, 5}, {25, 1, 5}, {26, 8, 25},
		{27, 24.5, 32}, {28, 16.5, 6}, {29, 15, 46},
	}
	entries := make([]seq.Entry, len(rows))
	for i, r := range rows {
		entries[i] = seq.Entry{Pos: r.pos, Rec: seq.Record{seq.Float(r.close), seq.Int(r.volume)}}
	}
	data, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	base := algebra.Base("b1", data)
	next, err := algebra.ValueOffset(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	closeCol, err := expr.NewCol(schema, "close")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.NewBin(expr.OpGe, closeCol, expr.Literal(seq.Float(12)))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.Select(next, pred)
	if err != nil {
		t.Fatal(err)
	}
	block, err = algebra.ValueOffset(sel, -2)
	if err != nil {
		t.Fatal(err)
	}
	query, err = algebra.Collapse(block, 3, algebra.AggSpec{Func: algebra.AggCount, Arg: 1, As: "g"})
	if err != nil {
		t.Fatal(err)
	}
	return query, block
}

func TestSeed81CollapseOverValueOffsetView(t *testing.T) {
	query, block := seed81Query(t)
	qspan := seq.NewSpan(-10, 50)
	opts := core.Options{ForceNaiveAggregates: true, ForceNaiveValueOffsets: true}

	want, err := algebra.EvalRange(query, qspan)
	if err != nil {
		t.Fatal(err)
	}

	// Materialize the voffset(-2) block over [-30, 152] — its access span
	// under the collapse query, which is the span the original fuzz run
	// registered (the materializing evaluation's universe is wider than
	// the consuming query's).
	vspan := seq.NewSpan(-30, 152)
	entries, err := algebra.EvalRange(block, vspan)
	if err != nil {
		t.Fatal(err)
	}
	kept := entries[:0]
	for _, e := range entries {
		if !e.Rec.IsNull() {
			kept = append(kept, e)
		}
	}
	data, err := seq.NewMaterialized(block.Schema, kept)
	if err != nil {
		t.Fatal(err)
	}

	reg := matview.New()
	if _, err := reg.RegisterAt("seed81", block, data, vspan, 1); err != nil {
		// Fixed behavior: the registry refuses the unsound block.
		if !strings.Contains(err.Error(), "universe-sensitive") {
			t.Fatalf("registration refused for the wrong reason: %v", err)
		}
		return
	}

	// Old behavior: registration succeeded, so the substituted plan must
	// agree with the reference evaluation. Seed 81 returns 61 rows here
	// against a 58-row reference.
	withViews := opts
	withViews.Views = reg
	vres, err := core.Optimize(query, qspan, withViews)
	if err != nil {
		t.Fatal(err)
	}
	if len(vres.Substitutions) == 0 {
		t.Fatal("view registered but never substituted; regression shape drifted")
	}
	got, err := vres.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.EntriesApproxEqual(got.Entries(), want) {
		t.Errorf("substituted plan disagrees with reference: got %d rows, want %d\nplan:\n%s",
			len(got.Entries()), len(want), vres.Explain())
	}
}

// TestUniverseInsensitiveBlockRegisters pins the other side of the fix:
// the select-over-voffset(+1) sub-block of the same query has finite
// support below it (the base), is not universe-sensitive, and must still
// register and substitute correctly.
func TestUniverseInsensitiveBlockRegisters(t *testing.T) {
	query, block := seed81Query(t)
	sel := block.Inputs[0] // select((close >= 12)) over voffset(+1)
	if algebra.UniverseSensitive(sel) {
		t.Fatal("select block unexpectedly universe-sensitive")
	}
	qspan := seq.NewSpan(-10, 50)
	want, err := algebra.EvalRange(query, qspan)
	if err != nil {
		t.Fatal(err)
	}

	vspan := seq.NewSpan(-22, 28)
	entries, err := algebra.EvalRange(sel, vspan)
	if err != nil {
		t.Fatal(err)
	}
	kept := entries[:0]
	for _, e := range entries {
		if !e.Rec.IsNull() {
			kept = append(kept, e)
		}
	}
	data, err := seq.NewMaterialized(sel.Schema, kept)
	if err != nil {
		t.Fatal(err)
	}
	reg := matview.New()
	if _, err := reg.RegisterAt("seed81-sel", sel, data, vspan, 1); err != nil {
		t.Fatalf("insensitive block refused registration: %v", err)
	}
	opts := core.Options{
		ForceNaiveAggregates:   true,
		ForceNaiveValueOffsets: true,
		Views:                  reg,
	}
	vres, err := core.Optimize(query, qspan, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := vres.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.EntriesApproxEqual(got.Entries(), want) {
		t.Errorf("substituted plan disagrees with reference: got %d rows, want %d",
			len(got.Entries()), len(want))
	}
}
