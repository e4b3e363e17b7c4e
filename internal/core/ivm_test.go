package core

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/seq"
	"repro/internal/storage"
)

// ivmBase builds a sparse store named "b" with records at the given
// positions (v = position) and returns it with its schema.
func ivmBase(t *testing.T, positions ...int64) (*storage.Snapshot, *seq.Schema) {
	t.Helper()
	schema := seq.MustSchema(seq.Field{Name: "v", Type: seq.TInt})
	entries := make([]seq.Entry, len(positions))
	for i, p := range positions {
		entries[i] = seq.Entry{Pos: p, Rec: seq.Record{seq.Int(p)}}
	}
	data, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.FromMaterialized(data, storage.KindSparse, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st, schema
}

// registerView evaluates block over span against its bound (old) data
// and registers the result.
func registerView(t *testing.T, reg *matview.Registry, name string, block *algebra.Node, span seq.Span) *matview.View {
	t.Helper()
	entries, err := algebra.EvalRange(block, span)
	if err != nil {
		t.Fatal(err)
	}
	data, err := seq.NewMaterialized(block.Schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.RegisterAt(name, block, data, span, 1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// viewEntries collects a view's stored records.
func viewEntries(t *testing.T, v *matview.View) []seq.Entry {
	t.Helper()
	entries, err := seq.Collect(v.Store.Scan(seq.AllSpan))
	if err != nil {
		t.Fatal(err)
	}
	return entries
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

// TestMaintainViewsPolicy drives one append through views whose halos
// force each maintenance action, checking the decision and — for the
// maintained ones — that the stored data now matches a from-scratch
// evaluation over the new data.
func TestMaintainViewsPolicy(t *testing.T) {
	dense := make([]int64, 100) // 0..99
	for i := range dense {
		dense[i] = int64(i)
	}
	span := seq.NewSpan(0, 120)

	sum := func(in *algebra.Node, w algebra.Window) *algebra.Node {
		n, err := algebra.Agg(in, algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: w})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	sel := func(in *algebra.Node) *algebra.Node {
		col, err := expr.ColAt(in.Schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := expr.NewBin(expr.OpGe, col, expr.Literal(seq.Int(0)))
		if err != nil {
			t.Fatal(err)
		}
		n, err := algebra.Select(in, pred)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	voffset := func(in *algebra.Node, o int64) *algebra.Node {
		n, err := algebra.ValueOffset(in, o)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	cases := []struct {
		name  string
		data  []int64 // old base positions
		block func(base *algebra.Node) *algebra.Node
		want  matview.MaintainAction
		// wantSpan is the expected post-maintenance span (stitch keeps
		// the registered span).
		wantSpan seq.Span
	}{
		{"select stitches the appended position", dense,
			func(b *algebra.Node) *algebra.Node { return sel(b) },
			matview.MaintainStitch, span},
		{"trailing window stitches the bounded halo", dense,
			func(b *algebra.Node) *algebra.Node { return sum(b, algebra.Trailing(3)) },
			matview.MaintainStitch, span},
		// A cumulative stitch over the tail still scans all history, so the
		// pricing falls back to keeping the unaffected prefix instead.
		{"cumulative aggregate shrinks to the unaffected prefix", dense,
			func(b *algebra.Node) *algebra.Node { return sum(b, algebra.Cumulative()) },
			matview.MaintainShrink, seq.NewSpan(0, 99)},
		{"anticipating aggregate invalidates (whole span affected)", dense,
			func(b *algebra.Node) *algebra.Node { return sum(b, algebra.Window{HiUnbounded: true}) },
			matview.MaintainInvalidate, seq.EmptySpan},
		{"backward voffset shrinks below the append", dense,
			func(b *algebra.Node) *algebra.Node { return voffset(b, -1) },
			matview.MaintainShrink, seq.NewSpan(0, 100)},
		{"forward voffset over sparse data shrinks to the shielded prefix",
			[]int64{0, 1, 2},
			func(b *algebra.Node) *algebra.Node { return voffset(b, 1) },
			matview.MaintainShrink, seq.NewSpan(0, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldStore, schema := ivmBase(t, tc.data...)
			block := tc.block(algebra.Base("b", oldStore))
			reg := matview.New()
			registerView(t, reg, "v", block, span)

			// Append at 100 (beyond the old end for every dataset).
			newStore, _ := ivmBase(t, append(append([]int64(nil), tc.data...), 100)...)
			_ = schema
			lookup := func(name string) (seq.Sequence, bool) {
				if name == "b" {
					return newStore, true
				}
				return nil, false
			}
			reports, err := MaintainViews(reg, "b", seq.NewSpan(100, 100), 2, lookup, Options{})
			if err != nil {
				t.Fatalf("maintain: %v", err)
			}
			if len(reports) != 1 {
				t.Fatalf("got %d reports, want 1", len(reports))
			}
			rep := reports[0]
			if rep.Action != tc.want {
				t.Fatalf("action = %s, want %s\nreport: %s", rep.Action, tc.want, rep)
			}
			if tc.want == matview.MaintainInvalidate {
				reg.GC(2) // no reader is pinned below the maintenance epoch
				if _, ok := reg.Get("v"); ok {
					t.Fatalf("invalidated view still registered")
				}
				return
			}
			v, ok := reg.Get("v")
			if !ok {
				t.Fatalf("view gone after %s", tc.want)
			}
			if v.Span != tc.wantSpan {
				t.Fatalf("span = %v, want %v", v.Span, tc.wantSpan)
			}
			// The stored data must equal a from-scratch evaluation of the
			// block over the surviving span against the new data.
			fresh := tc.block(algebra.Base("b", newStore))
			want, err := algebra.EvalRange(fresh, v.Span)
			if err != nil {
				t.Fatal(err)
			}
			if got := viewEntries(t, v); !entriesEqual(got, want) {
				t.Fatalf("maintained view disagrees with recomputation\ngot  %v\nwant %v\nreport: %s", got, want, rep)
			}
		})
	}
}

// TestMaintainViewsEmptyDelta: a content-preserving reorganize (empty
// delta) touches nothing.
func TestMaintainViewsEmptyDelta(t *testing.T) {
	oldStore, _ := ivmBase(t, 0, 1, 2, 3)
	block, err := algebra.PosOffset(algebra.Base("b", oldStore), 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := matview.New()
	registerView(t, reg, "v", block, seq.NewSpan(-1, 2))
	before := viewEntries(t, mustGet(t, reg, "v"))
	reports, err := MaintainViews(reg, "b", seq.EmptySpan, 2,
		func(string) (seq.Sequence, bool) { return oldStore, true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Action != matview.MaintainNone {
		t.Fatalf("reports = %v", reports)
	}
	if after := viewEntries(t, mustGet(t, reg, "v")); !entriesEqual(before, after) {
		t.Fatalf("empty delta changed the view")
	}
}

// TestMaintainViewsEpochGenerations: under MVCC (epoch > 0) the old
// generation stays readable for earlier-pinned readers while the new
// one serves the maintenance epoch onward.
func TestMaintainViewsEpochGenerations(t *testing.T) {
	oldStore, _ := ivmBase(t, 0, 1, 2)
	block, err := algebra.PosOffset(algebra.Base("b", oldStore), 0)
	if err != nil {
		t.Fatal(err)
	}
	span := seq.NewSpan(0, 10)
	reg := matview.New()
	registerView(t, reg, "v", block, span)
	oldEntries := viewEntries(t, mustGet(t, reg, "v"))

	newStore, _ := ivmBase(t, 0, 1, 2, 5)
	reports, err := MaintainViews(reg, "b", seq.NewSpan(5, 5), 7,
		func(string) (seq.Sequence, bool) { return newStore, true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Action != matview.MaintainStitch {
		t.Fatalf("reports = %v", reports)
	}

	early := reg.At(6).Views()
	if len(early) != 1 || !entriesEqual(viewEntries(t, early[0]), oldEntries) {
		t.Fatalf("reader pinned before the write must see the old generation")
	}
	late := reg.At(7).Views()
	if len(late) != 1 {
		t.Fatalf("reader at the write epoch must see exactly the new generation, got %d", len(late))
	}
	fresh, err := algebra.EvalRange(block, span) // block still bound to old data
	if err != nil {
		t.Fatal(err)
	}
	_ = fresh
	wantBlock, err := algebra.PosOffset(algebra.Base("b", newStore), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.EvalRange(wantBlock, span)
	if err != nil {
		t.Fatal(err)
	}
	if got := viewEntries(t, late[0]); !entriesEqual(got, want) {
		t.Fatalf("new generation content wrong: got %v want %v", got, want)
	}
	// GC below the maintenance epoch reclaims the superseded generation
	// without touching the live one.
	reg.GC(7)
	if _, ok := reg.Get("v"); !ok {
		t.Fatalf("GC dropped the live generation")
	}
	if got := len(reg.At(7).Views()); got != 1 {
		t.Fatalf("after GC: %d views at epoch 7", got)
	}
}

func mustGet(t *testing.T, reg *matview.Registry, name string) *matview.View {
	t.Helper()
	v, ok := reg.Get(name)
	if !ok {
		t.Fatalf("view %q missing", name)
	}
	return v
}
