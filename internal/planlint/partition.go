package planlint

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/parallel"
)

// VerifyPartitions checks a partition planner decision against the plan
// it covers. The invariant family guards the legality argument of
// span-partitioned evaluation:
//
//	partition/union       the sub-spans are contiguous, ascending, and
//	                      their union is exactly the evaluation span, so
//	                      concatenated worker outputs reproduce the
//	                      serial stream (§2.3).
//	partition/halo        the decision's declared halo is the composed
//	                      effective scope of the plan joined with the
//	                      origin, re-derived here independently of the
//	                      planner (Prop. 2.1 window composition, Def.
//	                      3.3 value offset broadening, §5.1 affine zoom
//	                      scopes) — neither understated nor padded.
//	partition/serial-only a cost-model (non-forced) decision never
//	                      splits a plan whose effective scope cannot be
//	                      usefully bounded — left-unbounded cumulative
//	                      windows, unknown-density value offsets,
//	                      probed-mode compose legs, materialization
//	                      points.
//	partition/cache-isolation
//	                      worker plan clones share no mutable operator
//	                      cache with each other or with the original
//	                      plan (Thm. 3.1 gives each worker its own
//	                      cache-finite state).
//
// Serial decisions (K == 1) assert nothing and verify trivially.
func VerifyPartitions(p exec.Plan, d *parallel.Decision) []Issue {
	if p == nil || !d.Parallel() {
		return nil
	}
	c := &checker{}
	c.checkPartitionUnion(p, d)
	c.checkPartitionScope(p, d)
	c.checkCacheIsolation(p, d)
	return c.issues
}

func (c *checker) checkPartitionUnion(p exec.Plan, d *parallel.Decision) {
	if !d.Span.Bounded() {
		c.reportPlan("partition/union", "§2.3", p, "partitioned decision over unbounded span %s", d.Span)
		return
	}
	if d.K != len(d.Partitions) {
		c.reportPlan("partition/union", "§2.3", p, "decision says K=%d but carries %d partitions", d.K, len(d.Partitions))
	}
	next := d.Span.Start
	for i, part := range d.Partitions {
		if part.IsEmpty() || !part.Bounded() || part.End < part.Start {
			c.reportPlan("partition/union", "§2.3", p, "partition %d is empty or unbounded: %s", i, part)
			return
		}
		if part.Start != next {
			c.reportPlan("partition/union", "§2.3", p,
				"partitions are not contiguous ascending: partition %d starts at %d, want %d", i, part.Start, next)
			return
		}
		next = part.End + 1
	}
	if next != d.Span.End+1 {
		c.reportPlan("partition/union", "§2.3", p,
			"partition union ends at %d, want span end %d", next-1, d.Span.End)
	}
}

// checkPartitionScope re-derives the composed effective scope of the
// plan with its own walk over the exec operators (not the planner's
// walk over the algebra scope map) and checks both scope invariants
// against the decision: a serial-only plan must not have been split by
// the cost model, and the declared halo must equal the composed scope
// hull joined with the origin.
func (c *checker) checkPartitionScope(p exec.Plan, d *parallel.Decision) {
	hull, reason := partitionScope(p, algebra.Range(0, 0))
	if reason != "" {
		if !d.Forced {
			c.reportPlan("partition/serial-only", "Thm. 3.1", p,
				"K=%d cost-model decision over a serial-only plan (%s)", d.K, reason)
		}
		return
	}
	if want := hull.Hull(algebra.Range(0, 0)); d.Halo != want {
		c.reportPlan("partition/halo", "Prop. 2.1 / Def. 3.3", p,
			"declared halo %s is not the composed effective scope %s", d.Halo, want)
	}
}

// partitionScope composes relative effective-scope windows along every
// root-to-leaf path (Prop. 2.1: relative windows add under composition)
// and returns the hull over all leaves, or a non-empty reason when some
// operator's scope cannot be usefully bounded.
func partitionScope(p exec.Plan, acc algebra.Window) (algebra.Window, string) {
	inner := p
	if w, ok := p.(*exec.Metered); ok {
		inner = w.Inner
	}
	switch op := inner.(type) {
	case *exec.Leaf:
		return acc, ""
	case *exec.Rename:
		return partitionScope(op.In, acc)
	case *exec.SelectOp:
		return partitionScope(op.In, acc)
	case *exec.ProjectOp:
		return partitionScope(op.In, acc)
	case *exec.PosOffsetOp:
		return partitionScope(op.In, sumWindows(acc, algebra.Range(op.Offset, op.Offset)))
	case *exec.AggNaive:
		return scopeThroughWindow(op.In, op.Spec.Window, acc)
	case *exec.AggCached:
		return scopeThroughWindow(op.In, op.Spec.Window, acc)
	case *exec.AggSliding:
		return scopeThroughWindow(op.In, op.Spec.Window, acc)
	case *exec.AggCumulative:
		return acc, "cumulative aggregate (left-unbounded scope)"
	case *exec.ValueOffsetNaive:
		return scopeThroughValueOffset(op.In, op.Offset, acc)
	case *exec.ValueOffsetIncremental:
		return scopeThroughValueOffset(op.In, op.Offset, acc)
	case *exec.ComposeOp:
		if op.Strategy != exec.ComposeLockStep {
			return acc, "compose with a probed-mode inner leg"
		}
		l, reason := partitionScope(op.L, acc)
		if reason != "" {
			return acc, reason
		}
		r, reason := partitionScope(op.R, acc)
		if reason != "" {
			return acc, reason
		}
		return l.Hull(r), ""
	case *exec.Materialize:
		return acc, "materialization point"
	case *exec.CollapseOp:
		return partitionScope(op.In, algebra.Range(acc.Lo*op.Factor, acc.Hi*op.Factor+op.Factor-1))
	case *exec.ExpandOp:
		return partitionScope(op.In, algebra.Range(algebra.FloorDiv(acc.Lo, op.Factor), algebra.FloorDiv(acc.Hi, op.Factor)+1))
	default:
		return acc, fmt.Sprintf("unknown operator %s", p.Label())
	}
}

func scopeThroughWindow(in exec.Plan, w algebra.Window, acc algebra.Window) (algebra.Window, string) {
	if w.LoUnbounded || w.HiUnbounded {
		return acc, fmt.Sprintf("aggregate over unbounded window %s", w)
	}
	return partitionScope(in, sumWindows(acc, w))
}

func scopeThroughValueOffset(in exec.Plan, offset int64, acc algebra.Window) (algebra.Window, string) {
	density := in.Info().Density
	if density <= 0 {
		return acc, "value offset over input of unknown density"
	}
	need := offset
	if need < 0 {
		need = -need
	}
	est := int64(math.Ceil(float64(need) / density))
	w := algebra.Range(-est, 0)
	if offset > 0 {
		w = algebra.Range(0, est)
	}
	return partitionScope(in, sumWindows(acc, w))
}

// checkCacheIsolation copies the plan for two workers the way the
// parallel runner does (exec.Instrument) and verifies no mutable
// operator cache is reachable from two different plans (copy/copy or
// copy/original).
func (c *checker) checkCacheIsolation(p exec.Plan, d *parallel.Decision) {
	clones := make([]exec.Plan, 2)
	for i := range clones {
		var err error
		if clones[i], _, err = exec.Instrument(p, nil); err != nil {
			c.reportPlan("partition/cache-isolation", "Thm. 3.1", p,
				"plan in a K=%d decision is not clonable: %v", d.K, err)
			return
		}
	}
	seen := make(map[*cache.FIFO]string)
	record := func(root exec.Plan, who string) {
		var walk func(n exec.Plan)
		walk = func(n exec.Plan) {
			for _, f := range n.Caches() {
				if f == nil {
					continue
				}
				if prev, ok := seen[f]; ok {
					c.reportPlan("partition/cache-isolation", "Thm. 3.1", n,
						"operator cache shared between %s and %s", prev, who)
				} else {
					seen[f] = who
				}
			}
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
		walk(root)
	}
	record(p, "the original plan")
	for i, cl := range clones {
		record(cl, fmt.Sprintf("worker clone %d", i))
	}
}
