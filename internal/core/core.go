package core

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/matview"
	"repro/internal/meta"
	"repro/internal/parallel"
	"repro/internal/planlint"
	"repro/internal/reopt"
	"repro/internal/rewrite"
	"repro/internal/seq"
)

// Options configure the optimizer. The zero value selects the full
// pipeline with default parameters; the Disable/Force knobs exist for
// the ablation experiments (DESIGN.md E2–E5, E8).
type Options struct {
	// Params weight the cost model; nil selects DefaultCostParams.
	Params *CostParams
	// Rules is the rewrite rule set; nil selects rewrite.DefaultRules.
	Rules []rewrite.Rule
	// DisableRewrites skips Step 3 entirely.
	DisableRewrites bool
	// DisableSpanPropagation turns off the §3.2 span optimization: base
	// scans are not restricted to the top-down access spans, and compose
	// operators do not narrow scan ranges to the intersection of their
	// input spans (the Figure 3.A plan).
	DisableSpanPropagation bool
	// ForceComposeStrategy pins every compose to one join strategy
	// instead of costing the §3.3 alternatives.
	ForceComposeStrategy *exec.ComposeStrategy
	// ForceNaiveAggregates disables Cache-Strategy-A and the incremental
	// aggregate evaluators (the Figure 5.A baseline).
	ForceNaiveAggregates bool
	// ForceNaiveValueOffsets disables Cache-Strategy-B (the Figure 5.B
	// baseline).
	ForceNaiveValueOffsets bool
	// DisableSlidingAggregates removes the O(1) sliding-window
	// accumulator from consideration, leaving Cache-Strategy-A as the
	// best bounded-window strategy (the paper's configuration).
	DisableSlidingAggregates bool
	// Verify runs the planlint invariant verifier after every rewrite
	// rule firing and on the final result (see Result.Verify); an
	// invariant violation fails the Optimize call. The package-wide
	// VerifyAll switch turns this on for every call.
	Verify bool
	// Views is the materialized-view registry consulted during plan
	// generation: every non-leaf block is canonicalized and matched
	// against the registered views, and a "scan view + residual ops"
	// candidate is costed against recomputation (§3.4–3.5). Nil disables
	// view matching.
	Views *matview.Registry
	// Parallelism bounds the worker count of span-partitioned parallel
	// evaluation: 0 selects a GOMAXPROCS-derived default, 1 forces serial
	// evaluation, N > 1 caps the partition count at N. Within the bound,
	// the §4 cost model extended with the parallelism term picks the
	// actual K per query — including K = 1 (see internal/parallel).
	Parallelism int
	// Reopt configures mid-run adaptive reoptimization: when Enabled,
	// Run monitors predicted-vs-actual per-node costs at checkpoint
	// intervals and replans the remaining span on divergence (see
	// internal/reopt and Result.RunReoptWith).
	Reopt reopt.Config
	// Calibration, when non-nil and Params is nil, supplies cost
	// constants regressed from completed runs' EXPLAIN ANALYZE traces
	// (reopt.Calibration). Until it has enough observations the defaults
	// apply unchanged.
	Calibration *reopt.Calibration
	// Batch selects the execution data plane for Run and RunAnalyze: the
	// zero value (BatchAuto) drives converted operators through columnar
	// batches with value interning, BatchOff forces the record-at-a-time
	// scalar interpreter — the semantic ground truth the differential
	// tests compare against.
	Batch exec.BatchMode
}

func (o Options) params() CostParams {
	if o.Params != nil {
		return *o.Params
	}
	p := DefaultCostParams()
	if o.Calibration != nil {
		if k, ok := o.Calibration.Constants(); ok {
			// The regression is relative to the sequential-page unit
			// (SeqPage stays 1); constants without a counterpart in the
			// observed counters (Pred, ParallelStartup) keep defaults.
			p.RandPage = k.RandPage
			p.PerRecord = k.PerRecord
			p.CacheAccess = k.CacheAccess
		}
	}
	return p
}

// Stats reports what the optimizer did — including the Property 4.1
// counters for the block DP.
type Stats struct {
	// RulesFired counts Step 3 rewrite rule applications.
	RulesFired int
	// BlocksOptimized counts join blocks processed by the DP.
	BlocksOptimized int
	// JoinPlansEvaluated counts (subset, extension) pairs costed by the
	// DP — the paper's "number of join plans evaluated", O(N·2^(N-1)).
	JoinPlansEvaluated int64
	// CandidatesCosted counts individual (orientation × strategy)
	// candidates priced.
	CandidatesCosted int64
	// PeakPlansStored is the maximum number of DP entries live at once —
	// the paper's space bound O(C(N, ⌈N/2⌉)).
	PeakPlansStored int
}

// Result is an optimized query: executable plans for both access modes,
// cost estimates, and optimizer statistics.
type Result struct {
	// Plan is the cheapest stream-access plan (what Start runs).
	Plan exec.Plan
	// ProbedPlan is the cheapest probed-access plan.
	ProbedPlan exec.Plan
	// Cost holds the estimated stream cost and per-probe cost.
	Cost Cost
	// RunSpan is the position range Run evaluates: the root's access
	// span after span propagation and intersection with the request.
	RunSpan seq.Span
	// Rewritten is the post-Step-3 query tree.
	Rewritten *algebra.Node
	// Annotation is the Step-2 meta-information.
	Annotation *meta.Annotation
	// Stats are the optimizer counters.
	Stats Stats
	// StreamAccess reports whether the chosen plan has the stream-access
	// property (Theorem 3.1): a single scan of the base sequences with
	// cache-finite operator state.
	StreamAccess bool
	// CacheBudget is the total configured operator-cache capacity of the
	// stream plan — the constant memory bound of Definition 3.2.
	CacheBudget int
	// Parallel is the partition planner's decision for Run: whether the
	// run span splits into contiguous sub-spans evaluated by concurrent
	// workers, at what K, and why (a serial decision records its reason).
	// See internal/parallel.
	Parallel *parallel.Decision
	// Substitutions lists the materialized-view substitutions the builder
	// adopted, in build order. Empty when no registry was configured or
	// no view won.
	Substitutions []*matview.Substitution
	// Views is the registry the plan was built against (nil when view
	// matching was disabled); EXPLAIN ANALYZE reads its counters.
	Views *matview.Registry
	// PlanCosts maps every physical node the builder created (including
	// candidates the DP discarded) to its estimate, keyed by node
	// identity. EXPLAIN ANALYZE joins it against the executed tree to
	// print predicted next to actual.
	PlanCosts map[exec.Plan]Cost
	// Params are the cost-model weights the estimates were computed with,
	// kept so predictions can be converted back to page units.
	Params CostParams

	// nodes maps every physical node the builder created back to the
	// algebra node it evaluates. The reoptimization layer walks it in
	// lockstep with the metrics tree to turn observed row counts into
	// density overrides for replanning.
	nodes map[exec.Plan]*algebra.Node
	// opts are the options this result was optimized under, kept so
	// mid-run replans rebuild with the same configuration.
	opts Options
}

// Run executes the stream plan over the run span and materializes the
// output (the Start operator of Figure 6): RunAnalyze without the
// metrics. With Options.Reopt enabled the run is monitored and may
// splice in a replanned tail.
func (r *Result) Run() (*seq.Materialized, error) {
	a, err := r.run(r.opts.Reopt)
	if err != nil {
		return nil, err
	}
	return a.Output, nil
}

// Probe evaluates the query at specific positions using the probed plan
// (the "records at specific positions" query form of §4).
func (r *Result) Probe(positions []seq.Pos) ([]seq.Entry, error) {
	return exec.RunProbes(r.ProbedPlan, positions)
}

// Explain renders the chosen stream plan; a partitioned run appends the
// planner's decision line (serial decisions render nothing, keeping the
// output identical to a build without the parallel subsystem), and each
// adopted materialized-view substitution appends a line describing the
// replaced block, the residual work, and the cost comparison that chose
// the view.
func (r *Result) Explain() string {
	out := exec.Explain(r.Plan)
	if r.Parallel.Parallel() {
		out += "\n" + r.Parallel.String()
	}
	for _, s := range r.Substitutions {
		modes := "stream"
		switch {
		case s.Stream && s.Probed:
			modes = "stream+probed"
		case s.Probed && !s.Stream:
			modes = "probed"
		}
		span := s.Need.String()
		if !s.Covered.IsEmpty() && s.Covered != s.Need {
			span = fmt.Sprintf("%s covered=%s", s.Need, s.Covered)
		}
		out += fmt.Sprintf("\nmatview: %s block ← scan %q span=%s residual=%d conjunct(s) [%s] cost %.2f vs recompute %.2f",
			s.Block.Kind, s.View.Name, span, len(s.Residual), modes, s.ViewCost, s.RecomputeCost)
	}
	return out
}

// findSharedNode returns a node reachable through two different parents,
// or nil when the graph is a tree.
func findSharedNode(root *algebra.Node) *algebra.Node {
	seen := make(map[*algebra.Node]bool)
	var walk func(n *algebra.Node) *algebra.Node
	walk = func(n *algebra.Node) *algebra.Node {
		if seen[n] {
			return n
		}
		seen[n] = true
		for _, in := range n.Inputs {
			if s := walk(in); s != nil {
				return s
			}
		}
		return nil
	}
	return walk(root)
}

// Optimize runs the full pipeline of §4 on the query for the requested
// output range and returns executable plans with estimates.
func Optimize(root *algebra.Node, requested seq.Span, opts Options) (*Result, error) {
	// Step 1: the query arrives as an algebra tree (specification).
	if root == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if algebra.Divergent(root) {
		return nil, fmt.Errorf("core: query contains an aggregate over unboundedly many records; bound the input with a base sequence or a bounded window")
	}
	// The paper restricts query graphs to trees (§2.2): "we do not allow
	// the output of any operator to act as the input to more than one
	// operator". Shared nodes would also break the per-node access-span
	// annotation (each occurrence needs its own restriction).
	if shared := findSharedNode(root); shared != nil {
		return nil, fmt.Errorf("core: query graph is not a tree: %s node feeds more than one operator (use a separate node per occurrence)", shared.Kind)
	}
	stats := Stats{}

	// Step 3: query transformations. (Run before Step 2 so the
	// annotation describes the tree we will actually plan; the paper
	// orders annotation first, but transformations preserve spans and
	// densities, so annotating the rewritten tree is equivalent and
	// avoids re-annotation.)
	verify := opts.Verify || VerifyAll
	rewritten := root
	if !opts.DisableRewrites {
		rules := opts.Rules
		if rules == nil {
			rules = rewrite.DefaultRules()
		}
		var hook rewrite.Hook
		if verify {
			hook = planlint.CheckRule
		}
		var fired int
		var err error
		rewritten, fired, err = rewrite.RewriteWithHook(root, rules, hook)
		if err != nil {
			return nil, err
		}
		stats.RulesFired = fired
	}

	// Step 2: meta-information propagation (bottom-up and top-down).
	ann, err := meta.Annotate(rewritten, requested)
	if err != nil {
		return nil, err
	}

	// Steps 4–5: block identification and block-wise plan generation,
	// performed by the recursive builder (blocks are rooted at compose
	// regions; non-unit operators delimit them).
	b := &builder{
		opts: opts, params: opts.params(), ann: ann, stats: &stats,
		costs: make(map[exec.Plan]Cost),
		nodes: make(map[exec.Plan]*algebra.Node),
	}
	cand, err := b.build(rewritten)
	if err != nil {
		return nil, err
	}

	// Step 6: plan selection. The Start operator performs a stream
	// access, so the stream plan is the query plan; the probed plan is
	// kept for positional queries.
	runSpan := ann.Get(rewritten).AccessSpan
	if opts.DisableSpanPropagation {
		// The Figure 3.A baseline: do not narrow the evaluated range to
		// the span intersection; only clamp to the bounded universe so
		// evaluation terminates.
		runSpan = requested.Intersect(ann.Universe)
	}
	res := &Result{
		Plan:          cand.stream,
		ProbedPlan:    cand.probed,
		Cost:          cand.cost,
		RunSpan:       runSpan,
		Rewritten:     rewritten,
		Annotation:    ann,
		Stats:         stats,
		StreamAccess:  algebra.StreamEvaluable(rewritten),
		CacheBudget:   exec.CacheBudget(cand.stream),
		Substitutions: b.subs,
		Views:         opts.Views,
		PlanCosts:     b.costs,
		Params:        b.params,
		nodes:         b.nodes,
		opts:          opts,
	}
	// Partition planning: decide K for the run span under the extended
	// cost model. A guard keeps pre-existing literal CostParams (zero
	// ParallelStartup) from modeling worker startup as free.
	pp := parallel.DefaultParams()
	if b.params.ParallelStartup > 0 {
		pp.Startup = b.params.ParallelStartup
	}
	res.Parallel = parallel.Plan(cand.stream, runSpan, cand.cost.Stream, opts.Parallelism, pp)
	if verify {
		if err := res.Verify(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExplainText is the EXPLAIN output: a header line — label, the stream
// and per-probe costs, the access mode and the cache budget — over the
// physical plan (Explain) and the annotated query (ExplainMeta).
func (r *Result) ExplainText(label string) string {
	mode := "stream-access (single scan, cache-finite)"
	if !r.StreamAccess {
		mode = "not stream-access (unbounded forward scope)"
	}
	return fmt.Sprintf("%s (stream cost %.2f, per-probe cost %.2f, %s, cache budget %d records):\n%s\nannotated query (span/density propagation):\n%s",
		label, r.Cost.Stream, r.Cost.ProbePer, mode, r.CacheBudget, r.Explain(), r.ExplainMeta())
}

// ExplainMeta renders the rewritten logical tree annotated with the
// Step-2 meta-information per node: valid span, estimated density, and
// the top-down restricted access span. It shows what the span and
// density propagation concluded, complementing Explain's physical view.
func (r *Result) ExplainMeta() string {
	var b strings.Builder
	var walk func(n *algebra.Node, depth int)
	walk = func(n *algebra.Node, depth int) {
		m := r.Annotation.Get(n)
		b.WriteString(strings.Repeat("  ", depth))
		line := n.Kind.String()
		if n.Kind == algebra.KindBase {
			line = "base(" + n.Name + ")"
		}
		if m != nil {
			line += fmt.Sprintf("  span=%s density=%.3f access=%s",
				m.Span, m.Density, m.AccessSpan)
		}
		b.WriteString(line)
		b.WriteByte('\n')
		for _, in := range n.Inputs {
			walk(in, depth+1)
		}
	}
	walk(r.Rewritten, 0)
	return strings.TrimRight(b.String(), "\n")
}
