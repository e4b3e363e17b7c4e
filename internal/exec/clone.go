package exec

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/expr"
)

// ClonePlan deep-copies a physical plan so the copy can run concurrently
// with (or independently of) the original. Stateful operators get fresh
// private state: cache-strategy operators receive new FIFO caches of the
// same capacity, materialization points drop their lazily built result
// so the copy re-materializes through its own inputs, and compiled
// batch-mode scratch is reset. Leaves share the underlying base sequence
// — base stores are safe for concurrent scans (their Stats counters are
// atomic) — but every mutable operator structure above them is
// duplicated.
//
// Plans containing operator types this function does not know (including
// already-instrumented *Metered trees) cannot be safely cloned, because
// unknown nodes may hold hidden mutable state; ClonePlan reports an error
// rather than aliasing them.
func ClonePlan(p Plan) (Plan, error) {
	return clonePlan(p, func(_, cp Plan) Plan { return cp })
}

// CloneWithExprs is ClonePlan with every operator expression — select
// and compose predicates, projection items — replaced by f's result.
// copied sees each original node next to its copy.
func CloneWithExprs(p Plan, f func(expr.Expr) expr.Expr, copied func(orig, cp Plan)) (Plan, error) {
	return clonePlan(p, func(orig, cp Plan) Plan {
		switch op := cp.(type) {
		case *SelectOp:
			op.Pred = f(op.Pred)
		case *ComposeOp:
			if op.Pred != nil {
				op.Pred = f(op.Pred)
			}
		case *ProjectOp:
			op.Items = append([]ProjExpr(nil), op.Items...)
			for i := range op.Items {
				op.Items[i].Expr = f(op.Items[i].Expr)
			}
		}
		copied(orig, cp)
		return cp
	})
}

// clonePlan is the one per-operator copy. hook sees each original node
// next to its fresh copy, bottom-up (the copy's children are already the
// hook's results), and returns the node its parent links to: the copy
// itself for ClonePlan, a metering wrapper around it for Instrument.
func clonePlan(p Plan, hook func(orig, cp Plan) Plan) (Plan, error) {
	var err error
	in := func(c Plan) Plan {
		if err != nil {
			return nil
		}
		var cp Plan
		cp, err = clonePlan(c, hook)
		return cp
	}
	var out Plan
	switch op := p.(type) {
	case *Leaf:
		cp := *op
		out = &cp
	case *Rename:
		cp := *op
		cp.In = in(op.In)
		out = &cp
	case *SelectOp:
		cp := *op
		cp.In = in(op.In)
		cp.pe = nil // compiled evaluator scratch must not be shared across workers
		out = &cp
	case *ProjectOp:
		cp := *op
		cp.In = in(op.In)
		cp.pc = nil // compiled projection scratch must not be shared across workers
		out = &cp
	case *PosOffsetOp:
		cp := *op
		cp.In = in(op.In)
		out = &cp
	case *ComposeOp:
		cp := *op
		cp.L = in(op.L)
		cp.R = in(op.R)
		out = &cp
	case *Concat:
		cp := *op
		cp.Left = in(op.Left)
		cp.Right = in(op.Right)
		out = &cp
	case *Materialize:
		cp := *op
		cp.In = in(op.In)
		cp.mat = nil // each copy materializes through its own input
		out = &cp
	case *AggNaive:
		cp := *op
		cp.In = in(op.In)
		out = &cp
	case *AggCached:
		cp := *op
		cp.In = in(op.In)
		cp.cache = cache.NewFIFO(op.cache.Cap())
		out = &cp
	case *AggSliding:
		cp := *op
		cp.In = in(op.In)
		out = &cp
	case *AggCumulative:
		cp := *op
		cp.In = in(op.In)
		out = &cp
	case *ValueOffsetNaive:
		cp := *op
		cp.In = in(op.In)
		out = &cp
	case *ValueOffsetIncremental:
		cp := *op
		cp.In = in(op.In)
		cp.cache = cache.NewFIFO(op.cache.Cap())
		out = &cp
	case *CollapseOp:
		cp := *op
		cp.In = in(op.In)
		out = &cp
	case *ExpandOp:
		cp := *op
		cp.In = in(op.In)
		out = &cp
	default:
		return nil, fmt.Errorf("exec: cannot clone unknown operator %T (%s)", p, p.Label())
	}
	if err != nil {
		return nil, err
	}
	return hook(p, out), nil
}
