// Incremental view maintenance: the planner side.
//
// matview/delta.go bounds *where* a base write can change each view
// (the affected interval); this file decides *what to do about it* and
// carries it out. Per view the choice is priced with the same cost model
// the optimizer uses for queries: re-evaluating just the affected
// sub-span (stitch) competes against re-evaluating the whole view span
// (what an invalidate-and-rematerialize cycle would pay). A stitch must
// win by StitchThreshold to be worth keeping the view hot; otherwise the
// unaffected prefix — if any — survives as a shrunken view served by
// partial-span matching, and only as a last resort is the view
// invalidated as before.
package core

import (
	"fmt"

	"repro/internal/matview"
	"repro/internal/seq"
	"repro/internal/storage"
)

// StitchThreshold is the fraction of the full-recompute cost a stitch
// must stay under to be applied: re-evaluating the halo keeps the view
// hot only when it is decisively cheaper than rebuilding it.
var StitchThreshold = 0.5

// MaintainViews incrementally maintains every registered view that
// reads base after its data changed over delta (base coordinates; an
// append publishes [p, p], a content-preserving reorganize an empty
// span). lookup resolves base names to their post-write sequences so
// the registered blocks can be re-evaluated against current data; epoch
// is the MVCC epoch the write published. Every decision — including
// "nothing to do" — is returned as a report for EXPLAIN and the planlint
// ivm/* invariants. A view whose maintenance fails is invalidated
// (never left stale); the error is folded into the returned error after
// all views are processed.
func MaintainViews(reg *matview.Registry, base string, delta seq.Span, epoch int64, lookup func(string) (seq.Sequence, bool), opts Options) ([]matview.MaintenanceReport, error) {
	if reg == nil {
		return nil, nil
	}
	// Maintenance plans views in isolation: no view substitution while
	// re-evaluating a view's own block.
	opts.Views = nil
	opts.Reopt.Enabled = false

	var reports []matview.MaintenanceReport
	var firstErr error
	for _, v := range reg.Views() {
		if v.InvalidFrom() != 0 || !matview.ReadsBase(v.Node, base) {
			continue
		}
		rep, err := maintainView(reg, v, base, delta, epoch, lookup, opts)
		if err != nil {
			v.InvalidateFrom(epoch)
			rep.Action = matview.MaintainInvalidate
			rep.NewSpan = seq.EmptySpan
			if firstErr == nil {
				firstErr = fmt.Errorf("maintain view %q: %w", v.Name, err)
			}
		}
		reports = append(reports, rep)
	}
	return reports, firstErr
}

func maintainView(reg *matview.Registry, v *matview.View, base string, delta seq.Span, epoch int64, lookup func(string) (seq.Sequence, bool), opts Options) (matview.MaintenanceReport, error) {
	rep := matview.MaintenanceReport{
		ViewName: v.Name,
		Base:     base,
		Delta:    delta,
		OldSpan:  v.Span,
		NewSpan:  v.Span,
		Epoch:    epoch,
	}
	node, err := matview.Rebind(v.Node, lookup)
	if err != nil {
		return rep, err
	}
	affected, known := matview.AffectedSpan(node, base, delta)
	rep.Affected = affected
	rep.AffectedKnown = known
	if !known {
		rep.Action = matview.MaintainInvalidate
		rep.NewSpan = seq.EmptySpan
		v.InvalidateFrom(epoch)
		return rep, nil
	}
	hit := affected.Intersect(v.Span)
	if hit.IsEmpty() {
		rep.Action = matview.MaintainNone
		return rep, nil
	}

	// Price the stitch against a full recompute of the view span with
	// the optimizer's own cost model.
	stitchRes, err := Optimize(node, hit, opts)
	if err != nil {
		return rep, err
	}
	recomputeRes, err := Optimize(node, v.Span, opts)
	if err != nil {
		return rep, err
	}
	rep.StitchCost = stitchRes.Cost.Stream
	rep.RecomputeCost = recomputeRes.Cost.Stream

	if rep.StitchCost <= StitchThreshold*rep.RecomputeCost {
		out, err := stitchRes.Run()
		if err != nil {
			return rep, err
		}
		store, err := stitchStore(v, hit, out.Entries())
		if err != nil {
			return rep, err
		}
		if _, err := reg.SwapGeneration(v.Name, v.Span, store, epoch); err != nil {
			return rep, err
		}
		rep.Action = matview.MaintainStitch
		rep.StitchSpan = hit
		return rep, nil
	}

	// Not worth stitching. Keep the unaffected prefix when there is one:
	// partial-span matching can still serve it.
	prefix := seq.NewSpan(v.Span.Start, seq.ClampPos(hit.Start-1))
	if !prefix.IsEmpty() {
		store, err := trimStore(v, prefix)
		if err != nil {
			return rep, err
		}
		if _, err := reg.SwapGeneration(v.Name, prefix, store, epoch); err != nil {
			return rep, err
		}
		rep.Action = matview.MaintainShrink
		rep.NewSpan = prefix
		return rep, nil
	}
	rep.Action = matview.MaintainInvalidate
	rep.NewSpan = seq.EmptySpan
	v.InvalidateFrom(epoch)
	return rep, nil
}

// stitchStore splices the re-evaluated entries over hit into the view's
// stored data: old records outside hit are kept, everything inside hit
// is replaced. The storage layer's copy-on-write replacement rebuilds
// only the pages under hit and shares the rest with the generation
// pinned readers still hold — the difference between maintenance that
// scales with the halo and maintenance that silently re-pays the rebuild
// it was priced against.
func stitchStore(v *matview.View, hit seq.Span, fresh []seq.Entry) (storage.Store, error) {
	store, ok, err := storage.Replace(v.Store, hit, fresh)
	if err == nil && !ok {
		err = fmt.Errorf("view store %T has no region replacement", v.Store)
	}
	return store, err
}

// trimStore rebuilds the view's store restricted to the surviving span.
func trimStore(v *matview.View, span seq.Span) (storage.Store, error) {
	kept, err := seq.Collect(v.Store.Scan(span))
	if err != nil {
		return nil, err
	}
	data, err := seq.NewMaterialized(v.Schema(), kept)
	if err != nil {
		return nil, err
	}
	return matview.NewStore(data, span)
}
