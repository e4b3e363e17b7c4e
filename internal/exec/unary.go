package exec

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/expr"
	"repro/internal/seq"
)

// SelectOp filters records by a predicate. Unit scope: no cache.
type SelectOp struct {
	In   Plan
	Pred expr.Expr

	// pe is the batch-mode predicate evaluator, compiled on first use.
	// Like the other operator-resident run state (e.g.
	// ValueOffsetIncremental's cache) it makes an instance
	// single-run-at-a-time; each run and each parallel worker executes
	// its own copy (ClonePlan), which compiles afresh.
	pe *predEval
}

// NewSelect builds a selection over the input plan.
func NewSelect(in Plan, pred expr.Expr) *SelectOp { return &SelectOp{In: in, Pred: pred} }

// Info implements seq.Sequence.
func (s *SelectOp) Info() seq.Info { return s.In.Info() }

// Probe implements seq.Sequence.
func (s *SelectOp) Probe(pos seq.Pos) (seq.Record, error) {
	r, err := s.In.Probe(pos)
	if err != nil || r.IsNull() {
		return nil, err
	}
	ok, err := expr.EvalPred(s.Pred, r)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return r, nil
}

// Scan implements seq.Sequence.
func (s *SelectOp) Scan(span seq.Span) seq.Cursor { return rowScan(s, span) }

// Label implements Plan.
func (s *SelectOp) Label() string { return "select(" + s.Pred.String() + ")" }

// Children implements Plan.
func (s *SelectOp) Children() []Plan { return []Plan{s.In} }

// Caches implements Plan.
func (s *SelectOp) Caches() []*cache.FIFO { return nil }

// ProjectOp maps records through output expressions. Unit scope.
type ProjectOp struct {
	In     Plan
	Items  []ProjExpr
	schema *seq.Schema

	// pc is the batch-mode projection program, compiled on first use;
	// see SelectOp.pe for the aliasing rules.
	pc *projCompiled
}

// ProjExpr is one output attribute of a physical projection.
type ProjExpr struct {
	Expr expr.Expr
	Name string
}

// NewProject builds a projection; the output schema is derived from the
// item names and expression types.
func NewProject(in Plan, items []ProjExpr) (*ProjectOp, error) {
	fields := make([]seq.Field, len(items))
	for i, it := range items {
		fields[i] = seq.Field{Name: it.Name, Type: it.Expr.Type()}
	}
	schema, err := seq.NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	return &ProjectOp{In: in, Items: items, schema: schema}, nil
}

// Info implements seq.Sequence.
func (p *ProjectOp) Info() seq.Info {
	info := p.In.Info()
	info.Schema = p.schema
	return info
}

// Probe implements seq.Sequence.
func (p *ProjectOp) Probe(pos seq.Pos) (seq.Record, error) {
	r, err := p.In.Probe(pos)
	if err != nil || r.IsNull() {
		return nil, err
	}
	out := make(seq.Record, len(p.Items))
	for i, it := range p.Items {
		v, err := it.Expr.Eval(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Scan implements seq.Sequence.
func (p *ProjectOp) Scan(span seq.Span) seq.Cursor { return rowScan(p, span) }

// Label implements Plan.
func (p *ProjectOp) Label() string {
	names := make([]string, len(p.Items))
	for i, it := range p.Items {
		names[i] = it.Name
	}
	return fmt.Sprintf("project(%v)", names)
}

// Children implements Plan.
func (p *ProjectOp) Children() []Plan { return []Plan{p.In} }

// Caches implements Plan.
func (p *ProjectOp) Caches() []*cache.FIFO { return nil }

// PosOffsetOp shifts the input: out(i) = in(i+l). In stream mode the
// effective scope is broadened to a bounded window (§3.4) — concretely,
// the operator scans the shifted range and re-addresses each record, so a
// single input scan suffices and no cache is needed at all.
type PosOffsetOp struct {
	In     Plan
	Offset int64
}

// NewPosOffset builds a positional offset.
func NewPosOffset(in Plan, offset int64) *PosOffsetOp {
	return &PosOffsetOp{In: in, Offset: offset}
}

// Info implements seq.Sequence.
func (o *PosOffsetOp) Info() seq.Info {
	info := o.In.Info()
	info.Span = info.Span.Shift(-o.Offset)
	return info
}

// Probe implements seq.Sequence.
func (o *PosOffsetOp) Probe(pos seq.Pos) (seq.Record, error) {
	p := pos + o.Offset
	if p <= seq.MinPos || p >= seq.MaxPos {
		return nil, nil
	}
	return o.In.Probe(p)
}

// Scan implements seq.Sequence.
func (o *PosOffsetOp) Scan(span seq.Span) seq.Cursor { return rowScan(o, span) }

// Label implements Plan.
func (o *PosOffsetOp) Label() string { return fmt.Sprintf("offset(%+d)", o.Offset) }

// Children implements Plan.
func (o *PosOffsetOp) Children() []Plan { return []Plan{o.In} }

// Caches implements Plan.
func (o *PosOffsetOp) Caches() []*cache.FIFO { return nil }
