package core

import (
	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/rewrite"
	"repro/internal/seq"
)

// A plan made for a text with slot literals (parser.Shape) serves
// another text of the same shape exactly when planning would not tell
// the two apart. Planning reads a slot's value in one place only, the
// selectivity estimator; the rest of planning sees its type, which the
// shape fixes. So Optimize records every estimate derived from a slot's
// value (expr.SlotRead) and two ways the value could reach the plan
// besides: constant folding, which consumes the literal into a new one,
// and view matching, which compares canonical forms literal by literal.

// Rebinds reports whether the plan serves its text with vals in the
// slots: no rewrite consumed a slot, no materialized view was matched
// against the query, and every estimate planning derived from a slot's
// value is bit-identical under vals.
func (r *Result) Rebinds(vals []seq.Value) bool {
	if !r.rebindable || len(vals) != r.slots {
		return false
	}
	for _, rd := range r.slotReads {
		if !rd.Same(vals[rd.Slot-1]) {
			return false
		}
	}
	return true
}

// WithLiterals returns the plan with vals in its slots: a copy whose
// rewritten tree, annotation, physical plans and their cost and node
// maps carry the new literals. Everything else — costs, the parallel
// decision, statistics — is shared, which Rebinds(vals) makes sound.
func (r *Result) WithLiterals(vals []seq.Value) (*Result, error) {
	sub := func(e expr.Expr) expr.Expr { return expr.WithSlots(e, vals) }
	copies := make(map[*algebra.Node]*algebra.Node)
	var copyTree func(n *algebra.Node) *algebra.Node
	copyTree = func(n *algebra.Node) *algebra.Node {
		cp := *n
		if n.Inputs != nil {
			cp.Inputs = make([]*algebra.Node, len(n.Inputs))
			for i, in := range n.Inputs {
				cp.Inputs[i] = copyTree(in)
			}
		}
		if n.Pred != nil {
			cp.Pred = sub(n.Pred)
		}
		if n.Items != nil {
			cp.Items = append([]algebra.ProjItem(nil), n.Items...)
			for i := range cp.Items {
				cp.Items[i].Expr = sub(cp.Items[i].Expr)
			}
		}
		copies[n] = &cp
		return &cp
	}
	out := *r
	out.Rewritten = copyTree(r.Rewritten)
	out.Annotation = r.Annotation.Rekey(copies)
	out.PlanCosts = make(map[exec.Plan]Cost, len(r.PlanCosts))
	out.nodes = make(map[exec.Plan]*algebra.Node, len(r.nodes))
	copied := func(orig, cp exec.Plan) {
		if c, ok := r.PlanCosts[orig]; ok {
			out.PlanCosts[cp] = c
		}
		if n, ok := r.nodes[orig]; ok {
			out.nodes[cp] = copies[n]
		}
	}
	var err error
	if out.Plan, err = exec.CloneWithExprs(r.Plan, sub, copied); err != nil {
		return nil, err
	}
	if r.ProbedPlan != nil {
		if out.ProbedPlan, err = exec.CloneWithExprs(r.ProbedPlan, sub, copied); err != nil {
			return nil, err
		}
	}
	return &out, nil
}

// slotCheck follows a bound tree's slot literals through rewriting: a
// rule firing that lowers a slot's number of occurrences — folding
// consumes them; a rule that drops an expression drops them — loses
// the slots (the plan then serves only its own literals).
type slotCheck struct {
	n    int // the bound tree's slots, numbered 1..n
	lost bool
}

func newSlotCheck(root *algebra.Node) *slotCheck {
	c := &slotCheck{}
	visitSlots(root, func(l *expr.Lit) { c.n = max(c.n, l.Slot) })
	return c
}

// counts returns each slot's occurrences in the tree's expressions.
func (c *slotCheck) counts(n *algebra.Node) []int {
	counts := make([]int, c.n+1)
	visitSlots(n, func(l *expr.Lit) { counts[l.Slot]++ })
	return counts
}

// hook observes each rule firing before handing it to next (nil: none).
func (c *slotCheck) hook(next rewrite.Hook) rewrite.Hook {
	return func(rule string, before, after *algebra.Node) error {
		if !c.lost {
			b, a := c.counts(before), c.counts(after)
			for i := range b {
				c.lost = c.lost || a[i] < b[i]
			}
		}
		if next == nil {
			return nil
		}
		return next(rule, before, after)
	}
}

// visitSlots calls f on every slot literal of the tree's expressions.
func visitSlots(n *algebra.Node, f func(*expr.Lit)) {
	if n.Pred != nil {
		expr.VisitSlots(n.Pred, f)
	}
	for _, it := range n.Items {
		expr.VisitSlots(it.Expr, f)
	}
	for _, in := range n.Inputs {
		visitSlots(in, f)
	}
}
