package planlint

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/matview"
	"repro/internal/seq"
)

// VerifyMaintenance re-derives the correctness of a batch of incremental
// view maintenance decisions (the ivm/* invariant family; see
// docs/INVARIANTS.md). reg is the registry the maintenance ran against
// (post-maintenance state), lookup resolves base names to their
// post-write sequences — the same binding the maintenance used.
//
//   - ivm/halo-coverage: the chosen action is consistent with the
//     recorded halo — a stitch re-evaluates exactly the affected
//     intersection, a shrink keeps only positions the halo cannot reach,
//     a no-op requires an empty intersection — and, outside the stitch,
//     the maintained view still equals evaluating its block against the
//     post-write data, so the halo covered every changed position. The
//     check is semantic; it does not re-run the halo analysis it audits.
//   - ivm/stitch-exact: the records a stitch spliced into the view store
//     are exactly what evaluating the view's block over the stitched
//     span against the post-write data produces.
//   - ivm/epoch-monotone: per view, maintenance epochs never decrease
//     across the batch, and a generation swapped in at epoch e > 0
//     reports FromEpoch == e.
func VerifyMaintenance(reg *matview.Registry, lookup func(string) (seq.Sequence, bool), reports []matview.MaintenanceReport) []Issue {
	c := &checker{}
	lastEpoch := make(map[string]int64)
	for i := range reports {
		rep := &reports[i]
		verifyMaintenanceReport(c, reg, lookup, rep)
		if prev, ok := lastEpoch[rep.ViewName]; ok && rep.Epoch < prev {
			c.reportIVM("ivm/epoch-monotone", rep,
				"maintenance epoch went backwards: %d after %d", rep.Epoch, prev)
		}
		lastEpoch[rep.ViewName] = rep.Epoch
	}
	return c.issues
}

func verifyMaintenanceReport(c *checker, reg *matview.Registry, lookup func(string) (seq.Sequence, bool), rep *matview.MaintenanceReport) {
	// Internal consistency of the decision against the recorded halo.
	hit := rep.Affected.Intersect(rep.OldSpan)
	switch rep.Action {
	case matview.MaintainNone:
		if !rep.AffectedKnown {
			c.reportIVM("ivm/halo-coverage", rep, "no-op with an unknown halo")
		} else if !hit.IsEmpty() {
			c.reportIVM("ivm/halo-coverage", rep,
				"no-op but the halo reaches the view: affected ∩ span = %v", hit)
		}
		if rep.NewSpan != rep.OldSpan {
			c.reportIVM("ivm/halo-coverage", rep, "no-op changed the span: %v -> %v", rep.OldSpan, rep.NewSpan)
		}
	case matview.MaintainStitch:
		if !rep.AffectedKnown {
			c.reportIVM("ivm/halo-coverage", rep, "stitch with an unknown halo")
		}
		if rep.StitchSpan != hit {
			c.reportIVM("ivm/halo-coverage", rep,
				"stitched span %v is not the halo's intersection with the view span %v", rep.StitchSpan, hit)
		}
		if rep.NewSpan != rep.OldSpan {
			c.reportIVM("ivm/halo-coverage", rep, "stitch changed the span: %v -> %v", rep.OldSpan, rep.NewSpan)
		}
	case matview.MaintainShrink:
		if !rep.AffectedKnown {
			c.reportIVM("ivm/halo-coverage", rep, "shrink with an unknown halo")
		}
		want := seq.NewSpan(rep.OldSpan.Start, seq.ClampPos(hit.Start-1))
		if rep.NewSpan != want {
			c.reportIVM("ivm/halo-coverage", rep,
				"shrunk span %v is not the unaffected prefix %v", rep.NewSpan, want)
		}
		if !rep.NewSpan.Intersect(rep.Affected).IsEmpty() {
			c.reportIVM("ivm/halo-coverage", rep,
				"shrunk span %v still intersects the halo %v", rep.NewSpan, rep.Affected)
		}
	case matview.MaintainInvalidate:
		if !rep.NewSpan.IsEmpty() {
			c.reportIVM("ivm/halo-coverage", rep, "invalidate kept a span: %v", rep.NewSpan)
		}
	}

	// The surviving generation, if any, must agree with the report and
	// with an independent evaluation of its block over post-write data.
	if rep.Action == matview.MaintainInvalidate {
		return
	}
	v, ok := reg.Get(rep.ViewName)
	if !ok {
		c.reportIVM("ivm/halo-coverage", rep, "maintained view is no longer registered")
		return
	}
	if v.Span != rep.NewSpan {
		c.reportIVM("ivm/halo-coverage", rep,
			"registered span %v does not match the report's %v", v.Span, rep.NewSpan)
		return
	}
	if rep.Epoch > 0 && rep.Action != matview.MaintainNone && v.FromEpoch != rep.Epoch {
		c.reportIVM("ivm/epoch-monotone", rep,
			"maintained generation is stamped FromEpoch %d, want the maintenance epoch %d",
			v.FromEpoch, rep.Epoch)
	}

	// The maintained generation must equal a fresh evaluation of its
	// block over the whole view span: a halo that missed a changed
	// position leaves a stale record outside the stitch.
	node, err := matview.Rebind(v.Node, lookup)
	if err != nil {
		c.reportIVM("ivm/halo-coverage", rep, "view block does not rebind to post-write data: %v", err)
		return
	}
	region := func(invariant string, span seq.Span) {
		if span.IsEmpty() {
			return
		}
		want, err := algebra.EvalRange(node, span)
		if err != nil {
			c.reportIVM(invariant, rep, "re-evaluating %v failed: %v", span, err)
			return
		}
		got, err := seq.Collect(v.Store.Scan(span))
		if err != nil {
			c.reportIVM(invariant, rep, "scanning %v failed: %v", span, err)
			return
		}
		if len(got) != len(want) {
			c.reportIVM(invariant, rep,
				"view holds %d records over %v, re-evaluation yields %d", len(got), span, len(want))
			return
		}
		for i := range got {
			// Float tolerance: the stitch ran through the optimizer's plan
			// (sliding accumulators, batch kernels), whose summation order
			// legitimately differs from the reference interpreter's.
			if got[i].Pos != want[i].Pos || !recordsApproxEqual(got[i].Rec, want[i].Rec) {
				c.reportIVM(invariant, rep,
					"view record at position %d differs from re-evaluation: got %v, want %v",
					got[i].Pos, got[i].Rec, want[i].Rec)
				return
			}
		}
	}
	stitch := seq.EmptySpan
	if rep.Action == matview.MaintainStitch {
		stitch = rep.StitchSpan.Intersect(rep.NewSpan)
	}
	if stitch.IsEmpty() {
		region("ivm/halo-coverage", rep.NewSpan)
		return
	}
	region("ivm/halo-coverage", seq.NewSpan(rep.NewSpan.Start, seq.ClampPos(stitch.Start-1)))
	region("ivm/stitch-exact", stitch)
	region("ivm/halo-coverage", seq.NewSpan(seq.ClampPos(stitch.End+1), rep.NewSpan.End))
}

// reportIVM attaches the report context to an ivm/* issue.
func (c *checker) reportIVM(invariant string, rep *matview.MaintenanceReport, format string, args ...any) {
	c.issues = append(c.issues, Issue{
		Invariant: invariant,
		Ref:       "§3.4",
		Node:      "view " + rep.ViewName,
		Detail:    fmt.Sprintf(format, args...) + " (" + rep.String() + ")",
	})
}
