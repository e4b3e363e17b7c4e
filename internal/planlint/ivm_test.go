package planlint_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/matview"
	"repro/internal/planlint"
	"repro/internal/seq"
	"repro/internal/storage"
)

// ivmFixture registers a posoffset view over a small base, adds records
// at the given positions, runs real maintenance for delta, and hands back
// everything the verifier needs.
func ivmFixture(t *testing.T, epoch int64, delta seq.Span, added ...int64) (*matview.Registry, func(string) (seq.Sequence, bool), []matview.MaintenanceReport) {
	t.Helper()
	schema := seq.MustSchema(seq.Field{Name: "v", Type: seq.TInt})
	mk := func(positions ...int64) seq.Sequence {
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
		return st
	}
	oldData, newData := mk(0, 1, 2), mk(append([]int64{0, 1, 2}, added...)...)
	block, err := algebra.PosOffset(algebra.Base("b", oldData), 0)
	if err != nil {
		t.Fatal(err)
	}
	span := seq.NewSpan(0, 10)
	viewData, err := algebra.EvalRange(block, span)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := seq.NewMaterialized(block.Schema, viewData)
	if err != nil {
		t.Fatal(err)
	}
	reg := matview.New()
	if _, err := reg.Register("v", block, mat, span); err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) (seq.Sequence, bool) {
		if name == "b" {
			return newData, true
		}
		return nil, false
	}
	reports, err := core.MaintainViews(reg, "b", delta, epoch, lookup, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return reg, lookup, reports
}

func TestVerifyMaintenanceClean(t *testing.T) {
	for _, epoch := range []int64{0, 3} {
		reg, lookup, reports := ivmFixture(t, epoch, seq.NewSpan(5, 5), 5)
		if issues := planlint.VerifyMaintenance(reg, lookup, reports); len(issues) != 0 {
			t.Fatalf("epoch %d: clean maintenance flagged:\n%v", epoch, planlint.Error(issues))
		}
	}
}

func TestVerifyMaintenanceCatchesViolations(t *testing.T) {
	reg, lookup, reports := ivmFixture(t, 0, seq.NewSpan(5, 5), 5)
	if len(reports) != 1 || reports[0].Action != matview.MaintainStitch {
		t.Fatalf("fixture did not stitch: %v", reports)
	}

	// A report whose recorded halo disagrees with the stitch it ran.
	lied := reports[0]
	lied.Affected = seq.NewSpan(7, 7)
	issues := planlint.VerifyMaintenance(reg, lookup, []matview.MaintenanceReport{lied})
	if !hasInvariant(issues, "ivm/halo-coverage") {
		t.Fatalf("halo disagreement not reported:\n%v", planlint.Error(issues))
	}

	// A stitch whose span is not the halo∩span intersection.
	off := reports[0]
	off.StitchSpan = seq.NewSpan(off.StitchSpan.Start, seq.ClampPos(off.StitchSpan.End+1))
	issues = planlint.VerifyMaintenance(reg, lookup, []matview.MaintenanceReport{off})
	if !hasInvariant(issues, "ivm/halo-coverage") {
		t.Fatalf("stitch-span mismatch not reported:\n%v", planlint.Error(issues))
	}

	// Stitched content that does not match re-evaluation: lie about the
	// base binding instead of the store.
	stale := func(name string) (seq.Sequence, bool) {
		s, ok := lookup(name)
		if !ok {
			return nil, false
		}
		_ = s
		schema := seq.MustSchema(seq.Field{Name: "v", Type: seq.TInt})
		data, err := seq.NewMaterialized(schema, []seq.Entry{{Pos: 5, Rec: seq.Record{seq.Int(99)}}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := storage.FromMaterialized(data, storage.KindSparse, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st, true
	}
	issues = planlint.VerifyMaintenance(reg, stale, []matview.MaintenanceReport{reports[0]})
	if !hasInvariant(issues, "ivm/stitch-exact") {
		t.Fatalf("content mismatch not reported:\n%v", planlint.Error(issues))
	}

	// Epochs running backwards across a batch.
	a, b := reports[0], reports[0]
	a.Epoch, b.Epoch = 5, 4
	issues = planlint.VerifyMaintenance(reg, lookup, []matview.MaintenanceReport{a, b})
	if !hasInvariant(issues, "ivm/epoch-monotone") {
		t.Fatalf("epoch regression not reported:\n%v", planlint.Error(issues))
	}
}

// TestVerifyMaintenanceCatchesMissedHalo: the data changes at positions 5
// and 7 but maintenance is told only about [5,5]. The halo analysis is
// right about the delta it was given, so re-running it agrees with the
// report and the stitch over [5,5] is exact; only comparing the whole
// maintained view with post-write data exposes the stale position 7.
func TestVerifyMaintenanceCatchesMissedHalo(t *testing.T) {
	reg, lookup, reports := ivmFixture(t, 0, seq.NewSpan(5, 5), 5, 7)
	if len(reports) != 1 || reports[0].StitchSpan != seq.NewSpan(5, 5) {
		t.Fatalf("fixture did not stitch [5,5]: %v", reports)
	}
	issues := planlint.VerifyMaintenance(reg, lookup, reports)
	if !hasInvariant(issues, "ivm/halo-coverage") {
		t.Fatalf("stale record outside the stitch not reported:\n%v", planlint.Error(issues))
	}
	if hasInvariant(issues, "ivm/stitch-exact") {
		t.Fatalf("the stitched region itself is exact:\n%v", planlint.Error(issues))
	}
}
