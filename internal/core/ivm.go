// Incremental view maintenance and standing queries: the planner side.
//
// matview/delta.go bounds *where* a base write can change a standing
// block (the affected interval); PlanHalo plans *that*, and a
// subscription sends it as a delta. A view prices it with the same cost
// model the optimizer uses for queries: re-evaluating just the halo
// (stitch) competes against re-evaluating the whole view span (what an
// invalidate-and-rematerialize cycle would pay). A stitch must win by
// stitchThreshold to be worth keeping the view hot; otherwise the
// unaffected prefix — if any — survives as a shrunken view served by
// partial-span matching, and only as a last resort is the view
// invalidated as before.
package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/matview"
	"repro/internal/seq"
	"repro/internal/storage"
)

// stitchThreshold is the fraction of the full-recompute cost a stitch
// must stay under to be applied: re-evaluating the halo keeps the view
// hot only when it is decisively cheaper than rebuilding it.
const stitchThreshold = 0.5

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
	h, err := PlanHalo(v.Node, v.Span, base, delta, lookup, opts)
	if err != nil {
		return rep, err
	}
	rep.Affected, rep.AffectedKnown = h.Affected, h.Known
	if h.Plan == nil {
		rep.Action = matview.MaintainNone
		return rep, nil
	}

	// Price the stitch against a full recompute of the view span with
	// the optimizer's own cost model, under the halo's isolated options.
	// An unknown halo is the whole span: only a recompute re-evaluates
	// that, and no prefix survives it.
	recomputeRes, err := Optimize(h.Node, v.Span, h.Plan.opts)
	if err != nil {
		return rep, err
	}
	rep.StitchCost = h.Plan.Cost.Stream
	rep.RecomputeCost = recomputeRes.Cost.Stream

	if h.Known && rep.StitchCost <= stitchThreshold*rep.RecomputeCost {
		out, err := h.Plan.Run()
		if err != nil {
			return rep, err
		}
		store, err := stitchStore(v, h.Span, out.Entries())
		if err != nil {
			return rep, err
		}
		if _, err := reg.SwapGeneration(v.Name, v.Span, store, epoch); err != nil {
			return rep, err
		}
		rep.Action = matview.MaintainStitch
		rep.StitchSpan = h.Span
		return rep, nil
	}

	// Not worth stitching. Keep the unaffected prefix when there is one:
	// partial-span matching can still serve it.
	prefix := seq.NewSpan(v.Span.Start, seq.ClampPos(h.Span.Start-1))
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

// Halo is the part of a standing block's span one base write can have
// changed. Affected is the scope walk's bound in output coordinates
// before clipping (Known is false when it found none); Span is Affected
// clipped to the block's span, all of it when unknown; Plan evaluates
// Span on Node, the block rebound to the write's snapshots, and is nil
// when Span is empty.
type Halo struct {
	Node     *algebra.Node
	Affected seq.Span
	Known    bool
	Span     seq.Span
	Plan     *Result
}

// PlanHalo is the step view maintenance and subscriptions share: rebind
// the block to lookup's snapshots, bound what a write to base over delta
// can change (matview.Affected, the Prop. 2.1 / Def. 3.3 scope walk,
// whose value-offset washouts scan their input on the engine), clip it
// to span and plan that sub-span in isolation: no view substitution
// while re-evaluating a view's own block, no mid-run reoptimization.
// The washout scans are planned and run in the same isolation. An empty
// base is an unknown write, whose halo is the whole span — a
// subscription's initial content.
func PlanHalo(block *algebra.Node, span seq.Span, base string, delta seq.Span, lookup func(string) (seq.Sequence, bool), opts Options) (*Halo, error) {
	node, err := matview.Rebind(block, lookup)
	if err != nil {
		return nil, err
	}
	opts.Views = nil
	opts.Reopt.Enabled = false
	h := &Halo{Node: node, Affected: seq.AllSpan, Span: span}
	if base != "" {
		h.Affected, h.Known = matview.Affected(node, base, delta, func(in *algebra.Node, span seq.Span) ([]seq.Entry, error) {
			res, err := Optimize(in, span, opts)
			if err != nil {
				return nil, err
			}
			out, err := res.Run()
			if err != nil {
				return nil, err
			}
			return out.Entries(), nil
		})
	}
	if h.Known {
		h.Span = h.Affected.Intersect(span)
	}
	if h.Span.IsEmpty() {
		return h, nil
	}
	h.Plan, err = Optimize(node, h.Span, opts)
	return h, err
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
