// Incremental view maintenance: the delta-halo analysis.
//
// When a base sequence changes over a span D (an append publishes D =
// [p, p]; a reorganize preserves content, D = empty), only a computable
// halo of each view's output can change — the paper's bounded effective
// scopes (Def. 3.3, Prop. 2.1) propagated bottom-up as an *affected
// interval*: the span of output positions whose records may differ
// between the old and new evaluation. The maintenance planner
// re-evaluates exactly that interval and stitches it into the view's
// backing store; everything outside it is provably unchanged.
//
// Each operator maps its input's affected span A to its own output
// frame with the inverse scope map, algebra.Node.ReachSpan (the
// per-operator table lives there), with seq.MinPos/MaxPos standing in
// for unbounded sides; a base leaf contributes D when it is the changed
// sequence, constants contribute nothing, and a compose takes the union
// of its legs.
//
// A value offset's ReachSpan is open-ended (Def. 3.3); the washout bound
// on the open side is data-dependent: the output changes as far as the
// |o|-th non-Null neighbour on the unchanged side of the delta, so the
// halo's width at a density boundary is the width of the gap. The bound
// is found by scanning the operator's
// *input* outward from the delta edge — sound because registrable views
// are universe-insensitive (algebra.UniverseSensitive), which guarantees
// every value-offset input has finite support and the scan terminates at
// the input's data hull. When the scan budget runs out the side stays
// unbounded, which is conservative (a wider halo is never wrong).
package matview

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/seq"
	"repro/internal/storage"
)

// washoutBudget bounds how many positions a value-offset washout scan
// may visit before giving up and reporting the side unbounded.
const washoutBudget = 1 << 14

// AffectedSpan returns the span of output positions of the block rooted
// at n whose records may change when base's data changes over delta
// (base coordinates). The node must be bound to the *new* data: washout
// scans read the unchanged side of the delta, where old and new agree.
// An unbounded side means the effect reaches arbitrarily far in that
// direction; callers clip against the view span. The second result is
// false when the analysis cannot bound the effect and the caller must
// assume everything changed.
func AffectedSpan(n *algebra.Node, base string, delta seq.Span) (seq.Span, bool) {
	switch n.Kind {
	case algebra.KindBase:
		if n.Name == base {
			return delta, true
		}
		return seq.EmptySpan, true
	case algebra.KindConst:
		return seq.EmptySpan, true
	case algebra.KindSelect, algebra.KindProject, algebra.KindCompose, algebra.KindPosOffset,
		algebra.KindAgg, algebra.KindCollapse, algebra.KindExpand, algebra.KindValueOffset:
		// A compose's legs share its unit scope: their halos unite.
		a := seq.EmptySpan
		for _, in := range n.Inputs {
			s, ok := AffectedSpan(in, base, delta)
			if !ok {
				return seq.AllSpan, false
			}
			a = a.Union(s)
		}
		out := n.ReachSpan(a)
		if n.Kind != algebra.KindValueOffset || out.IsEmpty() {
			return out, true
		}
		// The effective scope is open on the reading side; the effect
		// washes out at the |o|-th non-Null beyond the delta on the
		// other side (that record shields everything further away).
		if n.Offset < 0 {
			if r, ok := washout(n.Inputs[0], a.End, -n.Offset, +1); ok {
				out.End = r
			}
		} else if q, ok := washout(n.Inputs[0], a.Start, n.Offset, -1); ok {
			out.Start = q
		}
		return out, true
	default:
		return seq.AllSpan, false
	}
}

// washout finds the position of the count-th non-Null record of node in,
// scanning from edge (exclusive) in direction dir (+1 above, -1 below).
// Returns false when edge is unbounded, fewer than count non-Nulls exist
// on that side or the scan budget runs out — the caller leaves the side
// unbounded.
func washout(in *algebra.Node, edge seq.Pos, count int64, dir int64) (seq.Pos, bool) {
	if seq.EffectivelyUnbounded(edge) {
		return 0, false
	}
	hull := algebra.TransformedHull(in)
	if hull.IsEmpty() {
		return 0, false
	}
	var scan seq.Span
	if dir > 0 {
		scan = seq.NewSpan(edge+1, hull.End)
	} else {
		scan = seq.NewSpan(hull.Start, edge-1)
	}
	if scan.IsEmpty() {
		return 0, false
	}
	if !scan.Bounded() || scan.Len() > washoutBudget {
		return 0, false
	}
	entries, err := algebra.EvalRange(in, scan)
	if err != nil {
		return 0, false
	}
	seen := int64(0)
	if dir > 0 {
		for _, e := range entries {
			seen++
			if seen == count {
				return e.Pos, true
			}
		}
	} else {
		for i := len(entries) - 1; i >= 0; i-- {
			seen++
			if seen == count {
				return entries[i].Pos, true
			}
		}
	}
	return 0, false
}

// Rebind returns a copy of the block with every base leaf re-bound to
// the sequence lookup returns for its name (leaves lookup rejects are
// kept as registered). Maintenance uses it to evaluate the registered
// block against post-write data without mutating the immutable node.
func Rebind(n *algebra.Node, lookup func(name string) (seq.Sequence, bool)) (*algebra.Node, error) {
	if n.Kind == algebra.KindBase {
		s, ok := lookup(n.Name)
		if !ok {
			return n, nil
		}
		if !compatibleSchemas(s.Info().Schema, n.Schema) {
			return nil, fmt.Errorf("matview: rebind %q: schema %v does not match registered %v",
				n.Name, s.Info().Schema, n.Schema)
		}
		cp := *n
		cp.Seq = s
		return &cp, nil
	}
	if len(n.Inputs) == 0 {
		return n, nil
	}
	changed := false
	inputs := make([]*algebra.Node, len(n.Inputs))
	for i, in := range n.Inputs {
		r, err := Rebind(in, lookup)
		if err != nil {
			return nil, err
		}
		inputs[i] = r
		if r != in {
			changed = true
		}
	}
	if !changed {
		return n, nil
	}
	cp := *n
	cp.Inputs = inputs
	return &cp, nil
}

// MaintainAction is the maintenance planner's decision for one view
// after one base delta.
type MaintainAction int

const (
	// MaintainNone: the delta cannot touch the view's span; nothing to do.
	MaintainNone MaintainAction = iota
	// MaintainStitch: re-evaluate the affected sub-span and splice it
	// into the backing store; the rest of the span is provably unchanged.
	MaintainStitch
	// MaintainShrink: the unaffected prefix stays valid; the span is
	// trimmed to it without re-evaluation (partial-span matching serves
	// the prefix; queries recompute the rest).
	MaintainShrink
	// MaintainInvalidate: maintenance is not worth it (or not possible);
	// the view is invalidated as before.
	MaintainInvalidate
)

// String returns the action's name.
func (a MaintainAction) String() string {
	switch a {
	case MaintainNone:
		return "none"
	case MaintainStitch:
		return "stitch"
	case MaintainShrink:
		return "shrink"
	case MaintainInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("MaintainAction(%d)", int(a))
	}
}

// MaintenanceReport records one maintenance decision for audit: EXPLAIN
// surfaces it and planlint's ivm/* invariants re-verify it.
type MaintenanceReport struct {
	ViewName string
	Base     string
	// Delta is the changed base span that triggered maintenance.
	Delta seq.Span
	// Affected is the analyzed halo in view-output coordinates, before
	// clipping to the view span. Unbounded sides use seq.MinPos/MaxPos.
	Affected seq.Span
	// AffectedKnown is false when the analysis could not bound the halo.
	AffectedKnown bool
	Action        MaintainAction
	// StitchSpan is the re-evaluated sub-span (stitch only).
	StitchSpan seq.Span
	// OldSpan/NewSpan are the view spans before and after maintenance
	// (NewSpan is empty for invalidation).
	OldSpan, NewSpan seq.Span
	// Epoch is the MVCC epoch the maintained generation is valid from.
	Epoch int64
	// StitchCost/RecomputeCost are the planner costs the stitch decision
	// compared (stitch and shrink/invalidate outcomes both record them).
	StitchCost, RecomputeCost float64
}

// String renders the report for EXPLAIN and test failures.
func (m MaintenanceReport) String() string {
	s := fmt.Sprintf("ivm: view %q base %q delta %v affected %v action %s",
		m.ViewName, m.Base, m.Delta, m.Affected, m.Action)
	switch m.Action {
	case MaintainStitch:
		s += fmt.Sprintf(" stitch %v cost %.2f vs recompute %.2f", m.StitchSpan, m.StitchCost, m.RecomputeCost)
	case MaintainShrink:
		s += fmt.Sprintf(" span %v -> %v", m.OldSpan, m.NewSpan)
	case MaintainNone, MaintainInvalidate:
	}
	return s
}

// SwapGeneration replaces the named view with a new generation carrying
// the maintained store and span, visible to readers pinned at or after
// epoch. The old generation is marked invalid from the same epoch and
// retained for already-pinned readers until GC. The new generation
// keeps the registered node and canonical form and inherits the
// hit/miss counters.
func (r *Registry) SwapGeneration(name string, span seq.Span, store storage.Store, epoch int64) (*View, error) {
	if !span.Bounded() {
		return nil, fmt.Errorf("matview: swap %q: span %v is unbounded", name, span)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("matview: swap %q: no such view", name)
	}
	nv := &View{
		Name:  name,
		Node:  old.Node,
		Canon: old.Canon,
		Span:  span,
		Store: store,
		// A new generation becomes visible at the epoch of the write it
		// incorporates.
		FromEpoch: epoch,
	}
	nv.hits.Store(old.Hits())
	nv.misses.Store(old.Misses())
	// Pinned readers below epoch keep the old generation; it leaves
	// byName (the name now resolves to the new generation) but stays in
	// order until GC reclaims it.
	old.invalidFrom.CompareAndSwap(0, epoch)
	r.byName[name] = nv
	r.order = append(r.order, nv)
	return nv, nil
}
