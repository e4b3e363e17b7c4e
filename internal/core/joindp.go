package core

import (
	"fmt"
	"math/bits"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/meta"
	"repro/internal/rewrite"
	"repro/internal/seq"
)

// dpCand is one Selinger-table entry variant: an executable plan for a
// subset of the block's sources, with the source layout order and the
// cost in its role (total stream cost, or per-probe cost).
type dpCand struct {
	plan    exec.Plan
	order   []int // source indexes in the plan's column layout order
	schema  *seq.Schema
	span    seq.Span
	density float64
	cost    float64
}

// dpEntry keeps the best plan per access mode for one source subset —
// the sequence analog of Selinger's "interesting orders": a plan that is
// best for streaming may differ from the plan that is best to probe.
type dpEntry struct {
	stream *dpCand
	probed *dpCand
}

// buildBlock runs Steps 4–5 on a compose-rooted block: extract the
// sources and predicates, then enumerate left-deep join orders bottom-up,
// pricing the three §3.3 strategies per join and keeping the best
// stream/probed plan per subset (§4.1.3).
func (b *builder) buildBlock(root *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	blk, ok, err := rewrite.ExtractJoinBlock(root)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: compose node did not form a join block")
	}
	b.stats.BlocksOptimized++
	n := blk.NumSources()

	srcs := make([]*candidate, n)
	for i, s := range blk.Sources {
		c, err := b.build(s)
		if err != nil {
			return nil, err
		}
		srcs[i] = c
	}

	// Virtual-schema column statistics for predicate selectivities.
	vstats := make(map[int]expr.ColStats)
	for i, s := range blk.Sources {
		if sm := b.ann.Get(s); sm != nil {
			for c, st := range sm.ColStats {
				vstats[blk.SourceStart[i]+c] = st
			}
		}
	}

	outLen := float64(m.AccessSpan.Len())
	if outLen < 0 {
		outLen = 0
	}

	// A predicate's selectivity depends on it and the source statistics
	// only: estimate each once, not per join plan.
	sels := make([]float64, len(blk.Preds))
	for i, p := range blk.Preds {
		sels[i] = expr.Selectivity(p.Virtual, vstats, &b.slotReads)
	}

	dp := &blockDP{
		b: b, blk: blk, srcs: srcs, sels: sels, outLen: outLen,
		table: make(map[uint64]*dpEntry),
	}
	full, err := dp.run()
	if err != nil {
		return nil, err
	}

	streamPlan, streamCost, err := dp.restore(full.stream, root)
	if err != nil {
		return nil, err
	}
	b.note(streamPlan, Cost{Stream: streamCost})
	probedPlan, probeCost, err := dp.restore(full.probed, root)
	if err != nil {
		return nil, err
	}
	b.note(probedPlan, Cost{ProbePer: probeCost})
	return &candidate{
		stream: streamPlan, probed: probedPlan, schema: root.Schema,
		span: m.AccessSpan, density: m.Density,
		cost: Cost{Stream: streamCost, ProbePer: probeCost},
	}, nil
}

type blockDP struct {
	b      *builder
	blk    *rewrite.JoinBlock
	srcs   []*candidate
	sels   []float64 // per predicate of blk
	outLen float64
	table  map[uint64]*dpEntry
	peak   int
}

// covered reports which predicates are fully covered by the mask.
func (dp *blockDP) covered(mask uint64) []int {
	var out []int
	for i, p := range dp.blk.Preds {
		if p.Mask != 0 && p.Mask&^mask == 0 {
			out = append(out, i)
		}
	}
	return out
}

// newlyApplied returns the predicates covered by a|b but by neither side
// alone — the ones this join must apply.
func (dp *blockDP) newlyApplied(a, c uint64) []int {
	var out []int
	for i, p := range dp.blk.Preds {
		if p.Mask == 0 {
			continue
		}
		if p.Mask&^(a|c) == 0 && p.Mask&^a != 0 && p.Mask&^c != 0 {
			out = append(out, i)
		}
	}
	return out
}

// layoutMapping maps virtual columns onto the plan layout given by order.
func (dp *blockDP) layoutMapping(order []int) map[int]int {
	mapping := make(map[int]int)
	at := 0
	for _, s := range order {
		width := dp.blk.Sources[s].Schema.NumFields()
		for c := 0; c < width; c++ {
			mapping[dp.blk.SourceStart[s]+c] = at + c
		}
		at += width
	}
	return mapping
}

// predFor conjoins the given predicates remapped onto the layout.
func (dp *blockDP) predFor(idxs []int, order []int) (expr.Expr, float64, error) {
	if len(idxs) == 0 {
		return nil, 1, nil
	}
	mapping := dp.layoutMapping(order)
	var pred expr.Expr
	sel := 1.0
	for _, i := range idxs {
		p := dp.blk.Preds[i]
		remapped, err := expr.Remap(p.Virtual, mapping)
		if err != nil {
			return nil, 0, err
		}
		pred, err = expr.And(pred, remapped)
		if err != nil {
			return nil, 0, err
		}
		sel *= dp.sels[i]
	}
	return pred, sel, nil
}

// singleton builds the table entry for one source, applying its
// single-source predicates (any the rewriter could not push further).
func (dp *blockDP) singleton(i int) (*dpEntry, error) {
	src := dp.srcs[i]
	mask := rewrite.SourceMask(i)
	idxs := dp.covered(mask)
	order := []int{i}
	pred, sel, err := dp.predFor(idxs, order)
	if err != nil {
		return nil, err
	}
	mk := func(plan exec.Plan, cost float64, perProbe bool) *dpCand {
		density := src.density
		if pred != nil {
			density *= sel
			if perProbe {
				cost += float64(len(idxs)) * dp.b.params.Pred
			} else {
				cost += src.records() * float64(len(idxs)) * dp.b.params.Pred
			}
			plan = exec.NewSelect(plan, pred)
			if perProbe {
				dp.b.note(plan, Cost{ProbePer: finite(cost)})
			} else {
				dp.b.note(plan, Cost{Stream: finite(cost)})
			}
		}
		return &dpCand{
			plan: plan, order: order, schema: src.schema,
			span: src.span, density: density, cost: finite(cost),
		}
	}
	return &dpEntry{
		stream: mk(src.stream, src.cost.Stream, false),
		probed: mk(src.probed, src.cost.ProbePer, true),
	}, nil
}

// run executes the DP and returns the full-set entry.
func (dp *blockDP) run() (*dpEntry, error) {
	n := len(dp.srcs)
	fullMask := uint64(1)<<uint(n) - 1
	for i := 0; i < n; i++ {
		e, err := dp.singleton(i)
		if err != nil {
			return nil, err
		}
		dp.table[rewrite.SourceMask(i)] = e
		dp.note()
	}
	if n == 1 {
		return dp.table[fullMask], nil
	}
	// Group masks by popcount for the bottom-up sweep. Seed size 1 in
	// source order (not map order) so cost ties between equal plans
	// resolve the same way on every run — plans and EXPLAIN output stay
	// deterministic.
	bySize := make([][]uint64, n+1)
	for i := 0; i < n; i++ {
		bySize[1] = append(bySize[1], rewrite.SourceMask(i))
	}
	for k := 1; k < n; k++ {
		for _, mask := range bySize[k] {
			entry := dp.table[mask]
			if entry == nil {
				continue
			}
			for j := 0; j < n; j++ {
				jm := rewrite.SourceMask(j)
				if mask&jm != 0 {
					continue
				}
				dp.b.stats.JoinPlansEvaluated++
				newMask := mask | jm
				cand, err := dp.extend(entry, dp.table[jm], mask, jm)
				if err != nil {
					return nil, err
				}
				cur := dp.table[newMask]
				if cur == nil {
					dp.table[newMask] = cand
					bySize[k+1] = append(bySize[k+1], newMask)
					dp.note()
				} else {
					if cand.stream.cost < cur.stream.cost {
						cur.stream = cand.stream
					}
					if cand.probed.cost < cur.probed.cost {
						cur.probed = cand.probed
					}
				}
			}
		}
		// Left-deep DP only extends composites by singletons: size-k
		// composites are dead once size k+1 exists. Freeing them bounds
		// live plans by O(C(N, ⌈N/2⌉)) (Property 4.1.b).
		if k > 1 {
			for _, mask := range bySize[k] {
				delete(dp.table, mask)
			}
		}
	}
	full := dp.table[fullMask]
	if full == nil {
		return nil, fmt.Errorf("core: block DP produced no full plan")
	}
	return full, nil
}

func (dp *blockDP) note() {
	if len(dp.table) > dp.peak {
		dp.peak = len(dp.table)
	}
	if dp.peak > dp.b.stats.PeakPlansStored {
		dp.b.stats.PeakPlansStored = dp.peak
	}
}

// mkJoin composes two child candidates with the given strategy and
// already-computed strategy cost, applying the newly covered predicates.
// Order, schema and predicate layout are derived from the concrete child
// plans (the stream-best and probed-best plans of a subset may have
// different layouts).
func (dp *blockDP) mkJoin(l, r *dpCand, newly []int, strategy exec.ComposeStrategy, strategyCost float64) (*dpCand, error) {
	order := append(append([]int(nil), l.order...), r.order...)
	pred, sel, err := dp.predFor(newly, order)
	if err != nil {
		return nil, err
	}
	schema, err := l.schema.Concat(r.schema, "l", "r")
	if err != nil {
		return nil, err
	}
	plan, err := exec.NewCompose(l.plan, r.plan, pred, schema, strategy)
	if err != nil {
		return nil, err
	}
	plan.NoNarrow = dp.b.opts.DisableSpanPropagation
	return &dpCand{
		plan: plan, order: order, schema: schema,
		span:    l.span.Intersect(r.span),
		density: l.density * r.density * sel,
		cost:    finite(strategyCost),
	}, nil
}

// extend joins the composite entry with singleton j, pricing both
// orientations and all three join strategies (§4.1.3), and returns the
// best stream/probed pair for the union.
func (dp *blockDP) extend(composite, single *dpEntry, cmask, jmask uint64) (*dpEntry, error) {
	newly := dp.newlyApplied(cmask, jmask)
	params := dp.b.params
	out := &dpEntry{}
	for _, orient := range [2]bool{false, true} { // false: composite left
		left, right := composite, single
		if orient {
			left, right = single, composite
		}
		dL, dR := left.stream.density, right.stream.density
		// The paper's d1·d2·output_span·K term: join-function work at
		// every common non-Null position.
		matchWork := dL * dR * dp.outLen * (params.PerRecord + float64(len(newly))*params.Pred)
		probeAllL := left.probed.cost * dp.outLen
		probeAllR := right.probed.cost * dp.outLen

		type alt struct {
			strategy exec.ComposeStrategy
			cost     float64
			l, r     *dpCand
		}
		alts := []alt{
			// Stream the left, probe the right per non-Null record.
			{exec.ComposeStreamLeft, left.stream.cost + dL*probeAllR, left.stream, right.probed},
			// Stream the right, probe the left.
			{exec.ComposeStreamRight, right.stream.cost + dR*probeAllL, left.probed, right.stream},
			// Stream both in lock step.
			{exec.ComposeLockStep, left.stream.cost + right.stream.cost, left.stream, right.stream},
		}
		if f := dp.b.opts.ForceComposeStrategy; f != nil {
			for _, a := range alts {
				if a.strategy == *f {
					alts = []alt{a}
					break
				}
			}
		}
		for _, a := range alts {
			dp.b.stats.CandidatesCosted++
			cost := a.cost + matchWork
			if out.stream == nil || cost < out.stream.cost {
				cand, err := dp.mkJoin(a.l, a.r, newly, a.strategy, cost)
				if err != nil {
					return nil, err
				}
				dp.b.note(cand.plan, Cost{Stream: cand.cost})
				out.stream = cand
			}
		}
		// Probed access: probe the left, and only on a hit probe the
		// right (§4.1.3's min(a1 + d1·a2, a2 + d2·a1) — the two
		// orientations produce the two terms).
		dp.b.stats.CandidatesCosted++
		probeCost := left.probed.cost + dL*right.probed.cost +
			dL*dR*(params.PerRecord+float64(len(newly))*params.Pred)
		if out.probed == nil || probeCost < out.probed.cost {
			cand, err := dp.mkJoin(left.probed, right.probed, newly, exec.ComposeLockStep, probeCost)
			if err != nil {
				return nil, err
			}
			dp.b.note(cand.plan, Cost{ProbePer: cand.cost})
			out.probed = cand
		}
	}
	return out, nil
}

// restore re-projects a DP plan from its join-order layout back to the
// block root's original column order and names, so parent operators see
// the schema they were built against.
func (dp *blockDP) restore(c *dpCand, root *algebra.Node) (exec.Plan, float64, error) {
	identity := true
	for i, s := range c.order {
		if s != i {
			identity = false
			break
		}
	}
	if identity {
		if c.schema.Equal(root.Schema) {
			return c.plan, c.cost, nil
		}
		// Same column order, different qualifier-derived names: a
		// zero-cost rename suffices.
		plan, err := exec.NewRename(c.plan, root.Schema)
		if err != nil {
			return nil, 0, err
		}
		return plan, c.cost, nil
	}
	mapping := dp.layoutMapping(c.order)
	items := make([]exec.ProjExpr, root.Schema.NumFields())
	for v := 0; v < root.Schema.NumFields(); v++ {
		planIdx, ok := mapping[v]
		if !ok {
			return nil, 0, fmt.Errorf("core: virtual column %d unmapped in layout %v", v, c.order)
		}
		col, err := expr.ColAt(c.schema, planIdx)
		if err != nil {
			return nil, 0, err
		}
		items[v] = exec.ProjExpr{Expr: col, Name: root.Schema.Field(v).Name}
	}
	plan, err := exec.NewProject(c.plan, items)
	if err != nil {
		return nil, 0, err
	}
	return plan, finite(c.cost + c.density*dp.outLen*dp.b.params.PerRecord), nil
}

// popcount is exposed for the Property 4.1 tests.
func popcount(mask uint64) int { return bits.OnesCount64(mask) }
