package exec

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/expr"
	"repro/internal/seq"
)

// ComposeStrategy selects a physical evaluation of the positional join
// (§3.3, Figure 4).
type ComposeStrategy int

// The compose strategies of §3.3.
const (
	// ComposeLockStep streams both inputs in lock step, joining at
	// common positions — Join-Strategy-B.
	ComposeLockStep ComposeStrategy = iota
	// ComposeStreamLeft streams the left input and probes the right at
	// each non-Null position — Join-Strategy-A, first variant.
	ComposeStreamLeft
	// ComposeStreamRight streams the right input and probes the left —
	// Join-Strategy-A, second variant.
	ComposeStreamRight
)

// String returns the strategy name.
func (s ComposeStrategy) String() string {
	switch s {
	case ComposeLockStep:
		return "lockstep"
	case ComposeStreamLeft:
		return "stream-left"
	case ComposeStreamRight:
		return "stream-right"
	default:
		return fmt.Sprintf("ComposeStrategy(%d)", int(s))
	}
}

// ComposeOp positionally joins two inputs: out(i) = l(i).r(i), Null
// unless both are non-Null and the optional predicate holds (§2.1). The
// stream strategy is chosen at construction; probes always probe both
// sides.
type ComposeOp struct {
	L, R     Plan
	Pred     expr.Expr // over the concatenated record; may be nil
	Strategy ComposeStrategy
	// NoNarrow disables the span-propagation optimization at this
	// operator: scans are not restricted to the intersection of the
	// input spans (children still bound themselves). It exists for the
	// Figure-3 ablation experiment: disabling narrowing reproduces the
	// "Figure 3.A" plan that scans every input over its full valid
	// range.
	NoNarrow bool
	schema   *seq.Schema
}

// NewCompose builds a compose with the given output schema (derived by
// the planner from the input schemas and qualifiers) and strategy.
func NewCompose(l, r Plan, pred expr.Expr, schema *seq.Schema, strategy ComposeStrategy) (*ComposeOp, error) {
	if schema.NumFields() != l.Info().Schema.NumFields()+r.Info().Schema.NumFields() {
		return nil, fmt.Errorf("exec: compose schema arity %d does not match inputs %d+%d",
			schema.NumFields(), l.Info().Schema.NumFields(), r.Info().Schema.NumFields())
	}
	if pred != nil && pred.Type() != seq.TBool {
		return nil, fmt.Errorf("exec: compose predicate must be bool, got %s", pred.Type())
	}
	return &ComposeOp{L: l, R: r, Pred: pred, Strategy: strategy, schema: schema}, nil
}

// Info implements seq.Sequence.
func (c *ComposeOp) Info() seq.Info {
	li, ri := c.L.Info(), c.R.Info()
	return seq.Info{
		Schema:  c.schema,
		Span:    li.Span.Intersect(ri.Span),
		Density: li.Density * ri.Density,
	}
}

// Probe implements seq.Sequence: Null unless both sides answer and the
// predicate holds on the concatenated record.
func (c *ComposeOp) Probe(pos seq.Pos) (seq.Record, error) {
	l, err := c.L.Probe(pos)
	if err != nil || l.IsNull() {
		return nil, err
	}
	r, err := c.R.Probe(pos)
	if err != nil || r.IsNull() {
		return nil, err
	}
	out := l.Concat(r)
	if c.Pred != nil {
		if ok, err := expr.EvalPred(c.Pred, out); err != nil || !ok {
			return nil, err
		}
	}
	return out, nil
}

// Scan implements seq.Sequence.
func (c *ComposeOp) Scan(span seq.Span) seq.Cursor { return rowScan(c, span) }

// Label implements Plan.
func (c *ComposeOp) Label() string {
	s := "compose-" + c.Strategy.String()
	if c.Pred != nil {
		s += "(" + c.Pred.String() + ")"
	}
	return s
}

// Children implements Plan.
func (c *ComposeOp) Children() []Plan { return []Plan{c.L, c.R} }

// Caches implements Plan.
func (c *ComposeOp) Caches() []*cache.FIFO { return nil }

// Materialize caches its input's full stream result on first access and
// serves all subsequent scans and probes from memory — the derived-
// sequence materialization extension of §5.3. It is chosen when repeated
// probed access to an expensive derived sequence would otherwise
// recompute it per probe.
type Materialize struct {
	In   Plan
	Span seq.Span // the bounded span to materialize
	mat  *seq.Materialized
}

// NewMaterialize builds a materialization point over the bounded span.
func NewMaterialize(in Plan, span seq.Span) (*Materialize, error) {
	if !span.Bounded() {
		return nil, fmt.Errorf("exec: materialization requires a bounded span, got %v", span)
	}
	return &Materialize{In: in, Span: span}, nil
}

func (m *Materialize) ensure() error {
	if m.mat != nil {
		return nil
	}
	entries, err := seq.Collect(m.In.Scan(m.Span))
	if err != nil {
		return err
	}
	mat, err := seq.NewMaterialized(m.In.Info().Schema, entries)
	if err != nil {
		return err
	}
	if mat, err = mat.WithSpan(m.Span); err != nil {
		return err
	}
	m.mat = mat
	return nil
}

// Info implements seq.Sequence.
func (m *Materialize) Info() seq.Info {
	info := m.In.Info()
	info.Span = info.Span.Intersect(m.Span)
	return info
}

// Probe implements seq.Sequence.
func (m *Materialize) Probe(pos seq.Pos) (seq.Record, error) {
	if err := m.ensure(); err != nil {
		return nil, err
	}
	return m.mat.Probe(pos)
}

// Scan implements seq.Sequence.
func (m *Materialize) Scan(span seq.Span) seq.Cursor {
	if err := m.ensure(); err != nil {
		return seq.ErrCursor(err)
	}
	return m.mat.Scan(span)
}

// Label implements Plan.
func (m *Materialize) Label() string { return fmt.Sprintf("materialize(%s)", m.Span) }

// Children implements Plan.
func (m *Materialize) Children() []Plan { return []Plan{m.In} }

// Caches implements Plan.
func (m *Materialize) Caches() []*cache.FIFO { return nil }
