// Package meta implements Step 2 of the optimization algorithm (§4): the
// propagation of meta-information through the query graph.
//
// The bottom-up pass (Step 2.a) derives, for every node, the span (valid
// range) and density of its output sequence from those of its inputs,
// along with column statistics for selectivity estimation. The top-down
// pass (Step 2.b) then narrows the *access span* of every node — the
// range of positions that actually needs to be computed — starting from
// the range the query requests at the root. This is the bidirectional
// span propagation of §3.2 (Figure 3): composing sequences with
// overlapping valid ranges restricts every base-sequence access to the
// intersection window.
//
// Both passes take their per-operator position arithmetic from the §2.3
// scope map, algebra.Node.ReachSpan (2.a) and ReadSpan (2.b); this package
// adds densities, statistics, the value-offset support rule, the compose
// intersection and the universe clamp.
package meta

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/seq"
)

// NodeMeta is the meta-information attached to one operator's output.
type NodeMeta struct {
	// Span is the bottom-up valid range: outside it the output is Null.
	Span seq.Span
	// Density estimates the fraction of non-Null positions within Span.
	Density float64
	// ColStats maps output attribute index to value statistics.
	ColStats map[int]expr.ColStats
	// AccessSpan is the top-down restricted range that must actually be
	// computed to answer the query. It is always contained in Span
	// intersected with the requested range's reach.
	AccessSpan seq.Span
}

// ExpectedRecords estimates the number of non-Null records inside the
// access span.
func (m *NodeMeta) ExpectedRecords() float64 {
	n := m.AccessSpan.Len()
	if n <= 0 {
		return 0
	}
	if !m.AccessSpan.Bounded() {
		return math.Inf(1)
	}
	return m.Density * float64(n)
}

// Annotation carries the per-node meta-information of a query graph.
type Annotation struct {
	ByNode    map[*algebra.Node]*NodeMeta
	Requested seq.Span
	// Universe is the bounded range answers within the requested span
	// can depend on: the hull of base spans and the requested range,
	// grown by the query's offset reach. Access spans are clamped to it,
	// which keeps every physical scan and probe walk bounded even for
	// operators whose logical spans are unbounded (value offsets,
	// constants).
	Universe seq.Span

	// SlotReads are the estimates the annotation derived from slot
	// literals' values (see expr.Selectivity).
	SlotReads []expr.SlotRead

	// overrides substitutes observed densities for the derived estimates
	// at specific nodes (AnnotateWithOverrides): the reoptimization layer
	// feeds runtime observations back into Step 2 when replanning the
	// remaining span.
	overrides map[*algebra.Node]float64
}

// Get returns the meta for a node (nil if the node is not part of the
// annotated graph).
func (a *Annotation) Get(n *algebra.Node) *NodeMeta { return a.ByNode[n] }

// Rekey returns the annotation with every node n that to maps renamed
// to to[n]: the annotation of a copy of the tree. The metas are shared.
func (a *Annotation) Rekey(to map[*algebra.Node]*algebra.Node) *Annotation {
	out := *a
	out.ByNode = make(map[*algebra.Node]*NodeMeta, len(a.ByNode))
	for n, m := range a.ByNode {
		if cp, ok := to[n]; ok {
			n = cp
		}
		out.ByNode[n] = m
	}
	return &out
}

// Annotate runs both propagation passes over the query tree for the
// requested output range and returns the resulting annotation.
func Annotate(root *algebra.Node, requested seq.Span) (*Annotation, error) {
	return AnnotateWithOverrides(root, requested, nil)
}

// AnnotateWithOverrides is Annotate with observed densities substituted
// for the derived estimates at the given nodes (§4 Step 2.a with
// runtime feedback). An override replaces the node's bottom-up density
// before its parent consumes it, so the substitution propagates upward
// through the usual derivation; spans are unaffected. Nil or empty
// overrides reduce to Annotate.
func AnnotateWithOverrides(root *algebra.Node, requested seq.Span, overrides map[*algebra.Node]float64) (*Annotation, error) {
	return annotateUniverse(root, requested, algebra.Universe(root, requested), overrides)
}

// AnnotateSubSpan annotates root for a sub-range of an earlier request
// while keeping that request's universe. The universe is part of the
// query's semantics — degenerate operators (value offsets over constant
// sequences) are confined to it — so a mid-run replan of the remaining
// span must reuse the original universe, or the spliced plan would
// compute a different function than the plan it replaces.
func AnnotateSubSpan(root *algebra.Node, requested, universe seq.Span, overrides map[*algebra.Node]float64) (*Annotation, error) {
	return annotateUniverse(root, requested, universe, overrides)
}

func annotateUniverse(root *algebra.Node, requested, universe seq.Span, overrides map[*algebra.Node]float64) (*Annotation, error) {
	a := &Annotation{
		ByNode:    make(map[*algebra.Node]*NodeMeta),
		Requested: requested,
		Universe:  universe,
		overrides: overrides,
	}
	if _, err := a.bottomUp(root); err != nil {
		return nil, err
	}
	rootMeta := a.ByNode[root]
	rootMeta.AccessSpan = rootMeta.Span.Intersect(requested).ClampUnboundedTo(universe)
	a.topDown(root)
	return a, nil
}

func (a *Annotation) bottomUp(n *algebra.Node) (*NodeMeta, error) {
	var ins []*NodeMeta
	for _, in := range n.Inputs {
		m, err := a.bottomUp(in)
		if err != nil {
			return nil, err
		}
		ins = append(ins, m)
	}
	m, err := deriveMeta(n, ins, &a.SlotReads)
	if err != nil {
		return nil, err
	}
	if d, ok := a.overrides[n]; ok {
		m.Density = clamp01(d)
	}
	a.ByNode[n] = m
	return m, nil
}

func deriveMeta(n *algebra.Node, ins []*NodeMeta, reads *[]expr.SlotRead) (*NodeMeta, error) {
	switch n.Kind {
	case algebra.KindBase:
		info := n.Seq.Info()
		stats := n.BaseStats
		if stats == nil {
			stats = map[int]expr.ColStats{}
		}
		return &NodeMeta{Span: info.Span, Density: info.Density, ColStats: stats}, nil

	case algebra.KindConst:
		return &NodeMeta{Span: seq.AllSpan, Density: 1, ColStats: map[int]expr.ColStats{}}, nil

	case algebra.KindSelect:
		in := ins[0]
		sel := expr.Selectivity(n.Pred, in.ColStats, reads)
		return &NodeMeta{Span: in.Span, Density: in.Density * sel, ColStats: in.ColStats}, nil

	case algebra.KindProject:
		in := ins[0]
		stats := make(map[int]expr.ColStats)
		for i, it := range n.Items {
			if c, ok := it.Expr.(*expr.Col); ok {
				if st, have := in.ColStats[c.Index]; have {
					stats[i] = st
				}
			}
		}
		return &NodeMeta{Span: in.Span, Density: in.Density, ColStats: stats}, nil

	case algebra.KindPosOffset, algebra.KindExpand:
		// Each input record surfaces at its reach: once for an offset,
		// across its whole group for an expand.
		in := ins[0]
		return &NodeMeta{Span: n.ReachSpan(in.Span), Density: in.Density, ColStats: in.ColStats}, nil

	case algebra.KindValueOffset:
		in := ins[0]
		m := &NodeMeta{Span: n.ReachSpan(in.Span), ColStats: in.ColStats}
		if m.Span.IsEmpty() {
			return m, nil
		}
		// The reach stops one position inside the input's bounded edge;
		// the output is defined only from the |k|-th record onward (k < 0)
		// or up to the |k|-th last (k > 0), so that side moves |k|-1 in.
		if k := n.Offset; k < 0 {
			m.Span = m.Span.Grow(k+1, 0)
		} else {
			m.Span = m.Span.Grow(0, 1-k)
		}
		// Once enough records exist, every position maps to one: the
		// output is dense within its span (up to edge effects).
		m.Density = 1
		if in.Density == 0 {
			m.Density = 0
		}
		return m, nil

	case algebra.KindAgg, algebra.KindCollapse:
		in := ins[0]
		// Non-Null at i iff some input record lies in i's scope.
		m := &NodeMeta{Span: n.ReachSpan(in.Span), ColStats: map[int]expr.ColStats{}}
		if m.Span.IsEmpty() {
			return m, nil
		}
		if sc, err := n.Scope(0); err == nil && sc.FixedSize {
			// P(scope non-empty) = 1 - (1-d)^size under independence.
			m.Density = 1 - math.Pow(1-clamp01(in.Density), float64(sc.Size))
		} else {
			m.Density = 1
			if in.Density == 0 {
				m.Density = 0
			}
		}
		return m, nil

	case algebra.KindCompose:
		l, r := ins[0], ins[1]
		span := l.Span.Intersect(r.Span)
		sel := 1.0
		if n.Pred != nil {
			stats := concatStats(n, l, r)
			sel = expr.Selectivity(n.Pred, stats, reads)
		}
		// Independence assumption on the Null positions of the inputs
		// (§4, Step 2.a mentions correlation; we expose the knob through
		// the stats maps in a future extension).
		return &NodeMeta{
			Span:     span,
			Density:  l.Density * r.Density * sel,
			ColStats: concatStats(n, l, r),
		}, nil

	default:
		return nil, fmt.Errorf("meta: unknown node kind %v", n.Kind)
	}
}

func concatStats(n *algebra.Node, l, r *NodeMeta) map[int]expr.ColStats {
	stats := make(map[int]expr.ColStats, len(l.ColStats)+len(r.ColStats))
	leftArity := n.Inputs[0].Schema.NumFields()
	for i, st := range l.ColStats {
		stats[i] = st
	}
	for i, st := range r.ColStats {
		stats[leftArity+i] = st
	}
	return stats
}

// topDown narrows the access spans of n's inputs from n's own access
// span (Step 2.b), then recurses. ReadSpan's unbounded sides (unbounded
// windows, value offsets) fall back to the input's own span through the
// intersection.
func (a *Annotation) topDown(n *algebra.Node) {
	m := a.ByNode[n]
	for idx, in := range n.Inputs {
		childMeta := a.ByNode[in]
		childMeta.AccessSpan = n.ReadSpan(idx, m.AccessSpan).Intersect(childMeta.Span).ClampUnboundedTo(a.Universe)
		a.topDown(in)
	}
}

// StatsFromMaterialized computes column statistics by scanning a
// materialized sequence once; used when base sequences are registered.
func StatsFromMaterialized(m *seq.Materialized) map[int]expr.ColStats {
	schema := m.Info().Schema
	out := make(map[int]expr.ColStats)
	type acc struct {
		min, max float64
		distinct map[float64]struct{}
		any      bool
	}
	accs := make([]acc, schema.NumFields())
	for i := range accs {
		accs[i].distinct = make(map[float64]struct{})
	}
	for _, e := range m.Entries() {
		for i := 0; i < schema.NumFields(); i++ {
			if !schema.Field(i).Type.Numeric() {
				continue
			}
			v := e.Rec[i].AsFloat()
			a := &accs[i]
			if !a.any {
				a.min, a.max, a.any = v, v, true
			} else {
				if v < a.min {
					a.min = v
				}
				if v > a.max {
					a.max = v
				}
			}
			if len(a.distinct) < 10000 {
				a.distinct[v] = struct{}{}
			}
		}
	}
	for i := range accs {
		if accs[i].any {
			out[i] = expr.ColStats{
				Known:    true,
				Min:      accs[i].min,
				Max:      accs[i].max,
				Distinct: int64(len(accs[i].distinct)),
			}
		}
	}
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
