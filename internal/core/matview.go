package core

import (
	"repro/internal/algebra"
	"repro/internal/canon"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/meta"
	"repro/internal/seq"
)

// tryView gives the materialized-view registry a chance to answer the
// block rooted at n (§3.4–3.5: a materialized derived sequence is just
// another cached access path). When a registered view subsumes the block
// — equal canonical form modulo a residual select and a column
// permutation, span covering the block's access span — the builder
// prices "scan view + residual ops" like any other candidate and adopts
// it per access mode wherever it beats recomputation. Adopted
// substitutions are recorded for EXPLAIN and the matview/* planlint
// invariants; a view that matched but lost on cost (or span) records a
// miss (see adopt).
func (b *builder) tryView(n *algebra.Node, m *meta.NodeMeta, cand *candidate) (*candidate, error) {
	reg := b.opts.Views
	if reg == nil || reg.Len() == 0 {
		return cand, nil
	}
	// Substitution slots a span-restricted scan in for recomputation, so
	// it is sound only under span propagation; a bare base scan is
	// already an access path.
	if b.opts.DisableSpanPropagation {
		return cand, nil
	}
	if n.Kind == algebra.KindBase || n.Kind == algebra.KindConst {
		return cand, nil
	}
	c, err := canon.Canonicalize(n)
	if err != nil {
		// A block shape the canon does not cover is simply not matchable.
		return cand, nil
	}
	b.viewsExamined = true
	match, uncovered := reg.Match(c, m.AccessSpan)
	for _, v := range uncovered {
		b.viewUse = append(b.viewUse, viewUse{v, false})
	}
	if match == nil {
		return cand, nil
	}
	v := match.View
	access := m.AccessSpan
	partial := match.Partial(access)
	if partial && (cand.stream == nil || !access.Bounded()) {
		// A partial match splices the recompute plan in for the uncovered
		// tail; without one (or with an unbounded need) there is nothing
		// sound to splice.
		return cand, nil
	}
	covered := match.Covered

	// Price the view scan like a base store (§4.1.1): a restricted scan
	// touches the restricted fraction of the pages. A partial match scans
	// only the covered prefix.
	scanSpan := access
	if partial {
		scanSpan = covered
	}
	plan := exec.Plan(exec.NewLeaf("matview:"+v.Name, v.Store, scanSpan))
	info := v.Store.Info()
	ac := v.Store.AccessCosts()
	frac := 1.0
	if full := info.Span.Len(); full > 0 && info.Span.Bounded() && scanSpan.Bounded() {
		frac = float64(scanSpan.Len()) / float64(full)
		if frac > 1 {
			frac = 1
		}
	}
	records := 0.0
	if scanSpan.Bounded() && scanSpan.Len() > 0 {
		records = info.Density * float64(scanSpan.Len())
	}
	cost := Cost{
		Stream:   finite(float64(ac.StreamPages) * frac * b.params.SeqPage),
		ProbePer: finite(float64(ac.ProbePages) * b.params.RandPage),
	}
	b.note(plan, cost)

	if len(match.Residual) > 0 {
		var pred expr.Expr
		for _, e := range match.Residual {
			if pred, err = expr.And(pred, e); err != nil {
				return nil, err
			}
		}
		plan = exec.NewSelect(plan, pred)
		cost = Cost{
			Stream:   finite(cost.Stream + records*b.params.Pred),
			ProbePer: finite(cost.ProbePer + b.params.Pred),
		}
		b.note(plan, cost)
	}

	if restore, err2 := restoreColumns(plan, match.ColMap, n.Schema); err2 != nil {
		return nil, err2
	} else if restore != nil {
		plan = restore
		cost = Cost{
			Stream:   finite(cost.Stream + records*b.params.PerRecord),
			ProbePer: finite(cost.ProbePer + b.params.PerRecord),
		}
		b.note(plan, cost)
	}

	if partial {
		// Serve the covered prefix from the view and recompute the gap
		// with the plan the builder already has for this block: its leaf
		// access spans were derived for all of access ⊇ gap, so scanning
		// it over the gap alone is sound. The stream cost of the gap side
		// scales with the uncovered fraction of the span.
		gap := seq.NewSpan(covered.End+1, access.End)
		concat, err := exec.NewConcat(plan, cand.stream, covered.End)
		if err != nil {
			return nil, err
		}
		gapFrac := float64(gap.Len()) / float64(access.Len())
		coverFrac := 1 - gapFrac
		ccost := Cost{
			Stream:   finite(cost.Stream + gapFrac*cand.cost.Stream),
			ProbePer: finite(coverFrac*cost.ProbePer + gapFrac*cand.cost.ProbePer),
		}
		b.note(concat, ccost)
		sub := &matview.Substitution{
			View: v, Block: n, Need: access, Covered: covered,
			Residual: match.Residual, ColMap: match.ColMap,
			ViewCost: ccost.Stream, RecomputeCost: cand.cost.Stream,
		}
		if ccost.Stream < cand.cost.Stream {
			sub.Stream = true
			cand.stream = concat
			cand.cost.Stream = ccost.Stream
		}
		if ccost.ProbePer < cand.cost.ProbePer {
			sub.Probed = true
			if cand.probed != nil {
				if pc, err := exec.NewConcat(plan, cand.probed, covered.End); err == nil {
					cand.probed = pc
					cand.cost.ProbePer = ccost.ProbePer
				} else {
					sub.Probed = false
				}
			} else {
				sub.Probed = false
			}
		}
		b.adopt(sub)
		return cand, nil
	}

	sub := &matview.Substitution{
		View: v, Block: n, Need: access, Covered: access,
		Residual: match.Residual, ColMap: match.ColMap,
		ViewCost: cost.Stream, RecomputeCost: cand.cost.Stream,
	}
	if cost.Stream < cand.cost.Stream {
		sub.Stream = true
		cand.stream = plan
		cand.cost.Stream = cost.Stream
	}
	if cost.ProbePer < cand.cost.ProbePer {
		sub.Probed = true
		cand.probed = plan
		cand.cost.ProbePer = cost.ProbePer
	}
	b.adopt(sub)
	return cand, nil
}

// adopt records a matched view's outcome at one block: a substitution
// that won either access mode is adopted (a hit), one that lost both is
// a miss. The outcomes reach the view counters through countViewUse.
func (b *builder) adopt(sub *matview.Substitution) {
	hit := sub.Stream || sub.Probed
	if hit {
		b.subs = append(b.subs, sub)
	}
	b.viewUse = append(b.viewUse, viewUse{sub.View, hit})
}

// viewUse is one matched view's outcome at one block.
type viewUse struct {
	view *matview.View
	hit  bool
}

// countViewUse records outcomes on the views' hit and miss counters.
func countViewUse(uses []viewUse) {
	for _, u := range uses {
		if u.hit {
			u.view.Hit()
		} else {
			u.view.Miss()
		}
	}
}

// restoreColumns wraps the view-scan plan in a projection restoring the
// block's column order and names (block column i is stored column
// colMap[i]). It returns nil when the stored layout already matches.
func restoreColumns(plan exec.Plan, colMap []int, want *seq.Schema) (exec.Plan, error) {
	have := plan.Info().Schema
	identity := true
	for i, j := range colMap {
		if i != j || have.Field(i).Name != want.Field(i).Name {
			identity = false
			break
		}
	}
	if identity {
		return nil, nil
	}
	items := make([]exec.ProjExpr, len(colMap))
	for i, j := range colMap {
		c, err := expr.ColAt(have, j)
		if err != nil {
			return nil, err
		}
		items[i] = exec.ProjExpr{Expr: c, Name: want.Field(i).Name}
	}
	return exec.NewProject(plan, items)
}
