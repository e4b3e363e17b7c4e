package core

import (
	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/meta"
	"repro/internal/parallel"
	"repro/internal/planlint"
	"repro/internal/reopt"
	"repro/internal/seq"
)

// predFn returns the PlanCosts lookup as the instrumentation-layer
// prediction function.
func (r *Result) predFn() func(exec.Plan) exec.PredictedCost {
	return func(p exec.Plan) exec.PredictedCost {
		c, ok := r.PlanCosts[p]
		if !ok {
			return exec.PredictedCost{}
		}
		return exec.PredictedCost{Stream: c.Stream, ProbePer: c.ProbePer, Known: true}
	}
}

func (r *Result) verifyOn() bool { return r.opts.Verify || VerifyAll }

// RunReoptWith runs the stream plan under mid-run adaptive
// reoptimization with an explicit configuration (Enabled is implied) —
// the test and fuzz entry point (forced checkpoints, adversarial
// midpoints, forced tail parallelism) — and returns the output together
// with the reoptimization report. The monitored head segments run
// serially; a replanned tail may still run span-partitioned per its
// decision. In verify mode every spliced plan passes the planlint
// physical and cost checks at splice time, and the executed segments
// pass the reopt/* splice invariants afterwards.
func (r *Result) RunReoptWith(cfg reopt.Config) (*seq.Materialized, *reopt.Report, error) {
	cfg.Enabled = true
	a, err := r.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return a.Output, a.Reopt, nil
}

// runReopt drives reopt.Run on the run's data plane with a replanner
// over this result and, in verify mode, checks the executed segments.
func (r *Result) runReopt(cfg reopt.Config, ctx *seq.BatchCtx) (*seq.Materialized, *reopt.Report, error) {
	rp := &replanner{
		res:       r,
		plan:      r.Plan,
		span:      r.RunSpan,
		nodes:     r.nodes,
		ann:       r.Annotation,
		overrides: make(map[*algebra.Node]float64),
		tailK:     cfg.TailK,
		verify:    r.verifyOn(),
	}
	out, rep, err := reopt.Run(r.Plan, r.RunSpan, cfg, r.predFn(), r.Params, rp, ctx)
	if err != nil {
		return nil, nil, err
	}
	if rp.verify {
		segs := make([]planlint.ReoptSegment, len(rep.Segments))
		for i, s := range rep.Segments {
			segs[i] = planlint.ReoptSegment{Span: s.Span, Plan: s.Plan}
		}
		if err := planlint.Error(planlint.VerifyReopt(r.RunSpan, segs)); err != nil {
			return nil, nil, err
		}
	}
	return out, rep, nil
}

// replanner implements reopt.Planner over the per-block plan generator:
// on a trigger it derives observed densities from the current segment's
// metrics, re-annotates the rewritten tree for the remaining span with
// those densities substituted (meta.AnnotateWithOverrides), rebuilds,
// and decides tail parallelism.
type replanner struct {
	res  *Result
	plan exec.Plan // current segment's plan
	span seq.Span  // current segment's span
	// nodes/ann describe the current segment's plan (they start as the
	// static result's and are replaced on each replan).
	nodes map[exec.Plan]*algebra.Node
	ann   *meta.Annotation
	// overrides accumulate observed densities across replans, keyed by
	// algebra node (stable across rebuilds): a later splice must not
	// forget the observation that caused an earlier one, or the plan
	// would flip back.
	overrides map[*algebra.Node]float64
	tailK     int
	verify    bool
}

// Replan implements reopt.Planner.
func (rp *replanner) Replan(remaining, consumed seq.Span, metrics *exec.NodeMetrics, force bool) (*reopt.Segment, error) {
	rp.observe(consumed, metrics)
	// The rebuild keeps the original request's universe: it is part of
	// the query's semantics (degenerate operators are confined to it),
	// so a spliced plan must compute the same function over the
	// remaining span as the plan it replaces.
	ann, err := meta.AnnotateSubSpan(rp.res.Rewritten, remaining, rp.res.Annotation.Universe, rp.overrides)
	if err != nil {
		return nil, err
	}
	stats := Stats{}
	b := &builder{
		opts: rp.res.opts, params: rp.res.Params, ann: ann, stats: &stats,
		costs: make(map[exec.Plan]Cost),
		nodes: make(map[exec.Plan]*algebra.Node),
	}
	cand, err := b.build(rp.res.Rewritten)
	countViewUse(b.viewUse)
	if err != nil {
		return nil, err
	}
	// The segment covers exactly the remaining span (the reopt/span-cover
	// invariant); the plan's access spans restrict the scan internally.
	var d *parallel.Decision
	node := func(p exec.Plan) *algebra.Node { return b.nodes[p] }
	if rp.tailK >= 2 {
		if fd, err := parallel.ForceK(cand.stream, node, remaining, rp.tailK); err == nil {
			d = fd
		}
	}
	if d == nil {
		d = parallel.Plan(cand.stream, node, remaining, cand.cost.Stream, rp.res.opts.Parallelism, b.params)
	}
	// A rebuild that lands on the same strategies and the same (serial)
	// parallelism is not worth a splice: the trigger reflects cost-model
	// noise, not a better plan. Decline and keep the current segment
	// streaming — unless the caller demands the splice (ForceAt or the
	// threshold-0 fuzz mode).
	mode := reopt.StrategySignature(cand.stream)
	if !force && mode == reopt.StrategySignature(rp.plan) && !d.Parallel() {
		return nil, nil
	}
	if rp.verify {
		var issues []planlint.Issue
		issues = append(issues, planlint.VerifyPhysical(cand.stream)...)
		lookup := func(p exec.Plan) (float64, float64, bool) {
			c, ok := b.costs[p]
			return c.Stream, c.ProbePer, ok
		}
		issues = append(issues, planlint.VerifyCosts(cand.stream, lookup)...)
		issues = append(issues, planlint.VerifyPartitions(cand.stream, d)...)
		if err := planlint.Error(issues); err != nil {
			return nil, err
		}
	}
	costs := b.costs
	pred := func(p exec.Plan) exec.PredictedCost {
		c, ok := costs[p]
		if !ok {
			return exec.PredictedCost{}
		}
		return exec.PredictedCost{Stream: c.Stream, ProbePer: c.ProbePer, Known: true}
	}
	rp.plan, rp.span, rp.nodes, rp.ann = cand.stream, remaining, b.nodes, ann
	return &reopt.Segment{
		Plan:     cand.stream,
		Span:     remaining,
		Pred:     pred,
		Decision: d,
		Mode:     mode,
	}, nil
}

// observe walks the current segment's plan and metrics trees in
// lockstep (Instrument mirrors the plan shape one NodeMetrics per
// node) and records an observed output density per algebra node where
// the counters carry enough evidence.
func (rp *replanner) observe(consumed seq.Span, metrics *exec.NodeMetrics) {
	total := rp.span.Len()
	if total <= 0 {
		return
	}
	frac := float64(consumed.Len()) / float64(total)
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	var walk func(p exec.Plan, m *exec.NodeMetrics)
	walk = func(p exec.Plan, m *exec.NodeMetrics) {
		if n, ok := rp.nodes[p]; ok {
			if nm := rp.ann.Get(n); nm != nil {
				if d, ok := observedDensity(nm.AccessSpan, m, frac); ok {
					rp.overrides[n] = d
				}
			}
		}
		pc := p.Children()
		for i := 0; i < len(pc) && i < len(m.Children); i++ {
			walk(pc[i], m.Children[i])
		}
	}
	walk(rp.plan, metrics)
}

// minEvidence is the observation count below which a density estimate
// is noise, not signal.
const minEvidence = 4

// observedDensity derives a node's output density from its live
// counters: probed nodes report the non-Null fraction of their
// answers; streamed nodes report rows emitted over the consumed
// fraction of their access span.
func observedDensity(access seq.Span, m *exec.NodeMetrics, frac float64) (float64, bool) {
	if m.ProbeCalls >= minEvidence && m.ScanCalls == 0 {
		return float64(m.ProbeRows) / float64(m.ProbeCalls), true
	}
	if m.ScanCalls > 0 && access.Bounded() && access.Len() > 0 {
		expect := frac * float64(access.Len())
		if expect >= minEvidence {
			return float64(m.ScanRows) / expect, true
		}
	}
	return 0, false
}
