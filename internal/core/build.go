package core

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/meta"
	"repro/internal/seq"
	"repro/internal/storage"
)

// candidate couples executable plans for both access modes with the
// optimizer's estimates for the node they evaluate.
type candidate struct {
	stream  exec.Plan // plan whose Scan is cheapest
	probed  exec.Plan // plan whose Probe is cheapest
	schema  *seq.Schema
	span    seq.Span // access span (output positions that matter)
	density float64
	cost    Cost
}

// spanLen returns the bounded length of the candidate's span for cost
// arithmetic (unbounded spans saturate; costs stay finite via finite()).
func (c *candidate) spanLen() float64 {
	n := c.span.Len()
	if n <= 0 {
		return 0
	}
	return float64(n)
}

// records estimates the number of non-Null records in the access span.
func (c *candidate) records() float64 {
	return c.density * c.spanLen()
}

type builder struct {
	opts   Options
	params exec.CostWeights
	ann    *meta.Annotation
	stats  *Stats
	// costs records the optimizer's estimate for every physical node it
	// creates, keyed by node identity — the predicted side of EXPLAIN
	// ANALYZE. Optimize keeps only the chosen plans' entries (prune).
	costs map[exec.Plan]Cost
	// subs records the materialized-view substitutions adopted while
	// building, in build order (see tryView).
	subs []*matview.Substitution
	// viewUse records every matched view's outcome, in build order.
	viewUse []viewUse
	// viewsExamined records that a block was matched against the view
	// registry, and slotReads the estimates the join DP derived from
	// slot literals (see Result.Rebinds).
	viewsExamined bool
	slotReads     []expr.SlotRead
	// nodes maps each created physical node back to the algebra node it
	// evaluates (the reoptimization layer's plan→query join); nil
	// disables recording.
	nodes map[exec.Plan]*algebra.Node
}

// note records the estimate for a created plan node, merging with any
// earlier note: when the same physical node serves both access modes
// (e.g. a Leaf used as stream and probed plan), a later note for one
// role must not erase the other role's component.
func (b *builder) note(p exec.Plan, c Cost) {
	if b.costs == nil || p == nil {
		return
	}
	if prev, ok := b.costs[p]; ok {
		if c.Stream == 0 {
			c.Stream = prev.Stream
		}
		if c.ProbePer == 0 {
			c.ProbePer = prev.ProbePer
		}
	}
	b.costs[p] = c
}

// noteCand records the estimates for a candidate's plans, and which
// algebra node they evaluate.
func (b *builder) noteCand(n *algebra.Node, c *candidate) (*candidate, error) {
	b.note(c.stream, c.cost)
	b.note(c.probed, c.cost)
	if b.nodes != nil {
		if c.stream != nil {
			b.nodes[c.stream] = n
		}
		if c.probed != nil {
			b.nodes[c.probed] = n
		}
	}
	return c, nil
}

// prune drops the cost and node entries of every candidate the DP
// discarded, keeping those of the nodes reachable from roots — the only
// nodes the instrumentation, Verify and the replanner look up. A Result
// that outlives its request (the server's plan cache) then retains its
// plans, not every plan it priced.
func (b *builder) prune(roots ...exec.Plan) {
	costs := make(map[exec.Plan]Cost)
	nodes := make(map[exec.Plan]*algebra.Node)
	seen := make(map[exec.Plan]bool)
	var walk func(p exec.Plan)
	walk = func(p exec.Plan) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if c, ok := b.costs[p]; ok {
			costs[p] = c
		}
		if n, ok := b.nodes[p]; ok {
			nodes[p] = n
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	b.costs, b.nodes = costs, nodes
}

// build produces a candidate for the node (Steps 4–5, recursively).
func (b *builder) build(n *algebra.Node) (*candidate, error) {
	m := b.ann.Get(n)
	if m == nil {
		return nil, fmt.Errorf("core: node %s not annotated", n.Kind)
	}
	var cand *candidate
	var err error
	switch n.Kind {
	case algebra.KindBase:
		cand, err = b.buildBase(n, m)
	case algebra.KindConst:
		// The access span (clamped to the bounded universe) keeps scans
		// of the unbounded constant sequence finite.
		plan := exec.NewLeaf("const", n.Seq, m.AccessSpan)
		cand = &candidate{
			stream: plan, probed: plan, schema: n.Schema,
			span: m.AccessSpan, density: 1,
			cost: Cost{Stream: 0, ProbePer: 0},
		}
	case algebra.KindSelect:
		cand, err = b.buildSelect(n, m)
	case algebra.KindProject:
		cand, err = b.buildProject(n, m)
	case algebra.KindPosOffset:
		cand, err = b.buildPosOffset(n, m)
	case algebra.KindValueOffset:
		cand, err = b.buildValueOffset(n, m)
	case algebra.KindAgg:
		cand, err = b.buildAgg(n, m)
	case algebra.KindCompose:
		cand, err = b.buildBlock(n, m)
	case algebra.KindCollapse:
		cand, err = b.buildCollapse(n, m)
	case algebra.KindExpand:
		cand, err = b.buildExpand(n, m)
	default:
		return nil, fmt.Errorf("core: cannot build %s", n.Kind)
	}
	if err != nil {
		return nil, err
	}
	// A materialized view subsuming this block is an alternative access
	// path; adopt it per access mode wherever it prices below
	// recomputation (§3.4–3.5).
	if cand, err = b.tryView(n, m, cand); err != nil {
		return nil, err
	}
	return b.noteCand(n, cand)
}

// buildCollapse prices the §5.1 domain-coarsening operator: stream
// evaluation is one input scan; probes scan a k-position segment.
func (b *builder) buildCollapse(n *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	streamPlan, err := exec.NewCollapse(in.stream, n.Factor, *n.Agg, m.AccessSpan)
	if err != nil {
		return nil, err
	}
	probePlan, err := exec.NewCollapse(in.stream, n.Factor, *n.Agg, m.AccessSpan)
	if err != nil {
		return nil, err
	}
	k := float64(n.Factor)
	return &candidate{
		stream: streamPlan, probed: probePlan, schema: n.Schema,
		span: m.AccessSpan, density: m.Density,
		cost: Cost{
			Stream:   finite(in.cost.Stream + in.records()*b.params.PerRecord),
			ProbePer: finite(b.params.SeqPage + k*b.params.PerRecord),
		},
	}, nil
}

// buildExpand prices the §5.1 domain-refining operator: replication is
// free per record on streams, and probes divide through to the input.
func (b *builder) buildExpand(n *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	streamPlan, err := exec.NewExpand(in.stream, n.Factor, m.AccessSpan)
	if err != nil {
		return nil, err
	}
	probePlan, err := exec.NewExpand(in.probed, n.Factor, m.AccessSpan)
	if err != nil {
		return nil, err
	}
	outLen := float64(m.AccessSpan.Len())
	return &candidate{
		stream: streamPlan, probed: probePlan, schema: n.Schema,
		span: m.AccessSpan, density: m.Density,
		cost: Cost{
			Stream:   finite(in.cost.Stream + outLen*b.params.PerRecord),
			ProbePer: in.cost.ProbePer,
		},
	}, nil
}

// buildBase prices the two access modes of a stored sequence (§4.1.1).
func (b *builder) buildBase(n *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	access := m.AccessSpan
	if b.opts.DisableSpanPropagation {
		access = seq.AllSpan
	}
	plan := exec.NewLeaf(n.Name, n.Seq, access)
	info := n.Seq.Info()
	var streamPages, probePages float64
	if st, ok := n.Seq.(storage.Store); ok {
		ac := st.AccessCosts()
		streamPages = float64(ac.StreamPages)
		probePages = float64(ac.ProbePages)
	} else {
		// Unstored sequence (e.g. in-memory materialized): assume a
		// dense default-page layout.
		streamPages = math.Ceil(float64(info.Span.Len()) / storage.DefaultRecordsPerPage)
		probePages = 1
	}
	// A restricted scan touches the restricted fraction of the pages.
	frac := 1.0
	if full := info.Span.Len(); full > 0 && info.Span.Bounded() && m.AccessSpan.Bounded() {
		frac = float64(m.AccessSpan.Len()) / float64(full)
		if frac > 1 {
			frac = 1
		}
	}
	if b.opts.DisableSpanPropagation {
		frac = 1
	}
	return &candidate{
		stream: plan, probed: plan, schema: n.Schema,
		span: m.AccessSpan, density: m.Density,
		cost: Cost{
			Stream:   finite(streamPages * frac * b.params.SeqPage),
			ProbePer: finite(probePages * b.params.RandPage),
		},
	}, nil
}

func (b *builder) buildSelect(n *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	return &candidate{
		stream: exec.NewSelect(in.stream, n.Pred),
		probed: exec.NewSelect(in.probed, n.Pred),
		schema: n.Schema,
		span:   m.AccessSpan, density: m.Density,
		cost: Cost{
			Stream:   finite(in.cost.Stream + in.records()*b.params.Pred),
			ProbePer: finite(in.cost.ProbePer + b.params.Pred),
		},
	}, nil
}

func (b *builder) buildProject(n *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	items := make([]exec.ProjExpr, len(n.Items))
	for i, it := range n.Items {
		items[i] = exec.ProjExpr{Expr: it.Expr, Name: it.Name}
	}
	streamPlan, err := exec.NewProject(in.stream, items)
	if err != nil {
		return nil, err
	}
	probedPlan, err := exec.NewProject(in.probed, items)
	if err != nil {
		return nil, err
	}
	return &candidate{
		stream: streamPlan, probed: probedPlan, schema: n.Schema,
		span: m.AccessSpan, density: m.Density,
		cost: Cost{
			Stream:   finite(in.cost.Stream + in.records()*b.params.PerRecord),
			ProbePer: finite(in.cost.ProbePer + b.params.PerRecord),
		},
	}, nil
}

func (b *builder) buildPosOffset(n *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	return &candidate{
		stream: exec.NewPosOffset(in.stream, n.Offset),
		probed: exec.NewPosOffset(in.probed, n.Offset),
		schema: n.Schema,
		span:   m.AccessSpan, density: m.Density,
		cost: in.cost, // re-addressing is free
	}, nil
}

// probeSide returns the input plan a repeatedly probing operator should
// use, with its per-probe cost and any one-time setup cost. Probing a
// derived input recomputes it per probe; when that is expensive, the
// builder materializes the input once over its bounded access span — the
// derived-sequence materialization extension of §5.3.
func (b *builder) probeSide(inNode *algebra.Node, in *candidate) (exec.Plan, float64, float64, error) {
	switch in.probed.(type) {
	case *exec.Leaf, *exec.Materialize:
		return in.probed, in.cost.ProbePer, 0, nil
	}
	if in.cost.ProbePer <= 2*b.params.RandPage {
		return in.probed, in.cost.ProbePer, 0, nil
	}
	span := b.ann.Get(inNode).AccessSpan
	if !span.Bounded() {
		return in.probed, in.cost.ProbePer, 0, nil
	}
	mat, err := exec.NewMaterialize(in.stream, span)
	if err != nil {
		return nil, 0, 0, err
	}
	b.note(mat, Cost{Stream: in.cost.Stream, ProbePer: b.params.CacheAccess})
	return mat, b.params.CacheAccess, in.cost.Stream, nil
}

// buildValueOffset prices the naive and incremental (Cache-Strategy-B)
// algorithms of §4.1.2 and picks the cheaper stream plan. Probed access
// always uses the naive walk: "the incremental algorithm is not usable
// in conjunction with a probed access".
func (b *builder) buildValueOffset(n *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	k := float64(n.Offset)
	if k < 0 {
		k = -k
	}
	outLen := float64(m.AccessSpan.Len())
	d := in.density
	if d <= 1e-9 {
		d = 1e-9
	}
	probeIn, perProbe, setup, err := b.probeSide(n.Inputs[0], in)
	if err != nil {
		return nil, err
	}
	// §4.1.2: "some reasonable estimate ... of the number of input
	// positions that will have to be accessed on average ... from the
	// density of the input sequence": k records at density d span ~k/d
	// positions, each a probe.
	walkProbes := k / d
	probePer := finite(walkProbes*perProbe + k*b.params.PerRecord)
	naiveStream := finite(setup + outLen*probePer)
	incrStream := finite(in.cost.Stream + in.records()*b.params.CacheAccess + outLen*b.params.CacheAccess)

	naivePlan, err := exec.NewValueOffsetNaive(probeIn, n.Offset, m.AccessSpan)
	if err != nil {
		return nil, err
	}
	cand := &candidate{
		probed: naivePlan, schema: n.Schema,
		span: m.AccessSpan, density: m.Density,
		cost: Cost{ProbePer: probePer},
	}
	if b.opts.ForceNaiveValueOffsets || naiveStream <= incrStream {
		cand.stream = naivePlan
		cand.cost.Stream = naiveStream
		return cand, nil
	}
	incrPlan, err := exec.NewValueOffsetIncremental(in.stream, n.Offset, m.AccessSpan)
	if err != nil {
		return nil, err
	}
	cand.stream = incrPlan
	cand.cost.Stream = incrStream
	return cand, nil
}

// buildAgg prices the §4.1.2 aggregate strategies: naive probing,
// Cache-Strategy-A (window cache, O(w) per output), the O(1) sliding
// accumulator (extension), and the running accumulator for cumulative
// windows.
func (b *builder) buildAgg(n *algebra.Node, m *meta.NodeMeta) (*candidate, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	spec := *n.Agg
	w := spec.Window
	outLen := float64(m.AccessSpan.Len())

	// Expected window width for cost purposes.
	var width float64
	if size, fixed := w.Size(); fixed {
		width = float64(size)
	} else if w.LoUnbounded && !w.HiUnbounded {
		width = outLen / 2 // average prefix length
	} else {
		width = outLen
	}

	probeIn, perProbe, setup, err := b.probeSide(n.Inputs[0], in)
	if err != nil {
		return nil, err
	}
	probePer := finite(width*perProbe + width*b.params.PerRecord)
	naiveStream := finite(setup + outLen*probePer)

	naivePlan, err := exec.NewAggNaive(probeIn, spec, m.AccessSpan)
	if err != nil {
		return nil, err
	}
	cand := &candidate{
		probed: naivePlan, schema: n.Schema,
		span: m.AccessSpan, density: m.Density,
		cost: Cost{ProbePer: probePer},
	}

	type option struct {
		cost float64
		mk   func() (exec.Plan, error)
	}
	opts := []option{{naiveStream, func() (exec.Plan, error) { return naivePlan, nil }}}
	if !b.opts.ForceNaiveAggregates {
		if _, fixed := w.Size(); fixed {
			cacheA := finite(in.cost.Stream + in.records()*b.params.CacheAccess +
				outLen*(width*b.params.PerRecord+b.params.CacheAccess))
			opts = append(opts, option{cacheA, func() (exec.Plan, error) {
				return exec.NewAggCached(in.stream, spec, m.AccessSpan)
			}})
			if !b.opts.DisableSlidingAggregates {
				sliding := finite(in.cost.Stream + (in.records()+outLen)*b.params.PerRecord)
				opts = append(opts, option{sliding, func() (exec.Plan, error) {
					return exec.NewAggSliding(in.stream, spec, m.AccessSpan)
				}})
			}
		}
		if w.LoUnbounded && !w.HiUnbounded {
			running := finite(in.cost.Stream + (in.records()+outLen)*b.params.PerRecord)
			opts = append(opts, option{running, func() (exec.Plan, error) {
				return exec.NewAggCumulative(in.stream, spec, m.AccessSpan)
			}})
		}
	}
	best := opts[0]
	for _, o := range opts[1:] {
		if o.cost < best.cost {
			best = o
		}
	}
	plan, err := best.mk()
	if err != nil {
		return nil, err
	}
	cand.stream = plan
	cand.cost.Stream = best.cost
	return cand, nil
}
