package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/cache"
	"repro/internal/seq"
)

// runningAcc folds values incrementally for cumulative windows on both
// planes. It supports every aggregate function because records are only
// ever added, never removed.
type runningAcc struct {
	fn    algebra.AggFunc
	count int64
	sumI  int64
	sumF  float64
	isInt bool
	best  seq.Value
}

func newRunningAcc(fn algebra.AggFunc, isInt bool) *runningAcc {
	return &runningAcc{fn: fn, isInt: isInt}
}

func (a *runningAcc) add(v seq.Value) error {
	a.count++
	switch a.fn {
	case algebra.AggSum, algebra.AggAvg:
		if a.isInt && v.T == seq.TInt {
			a.sumI += v.AsInt()
		} else {
			a.sumF += v.AsFloat()
		}
	case algebra.AggMin, algebra.AggMax:
		if a.count == 1 {
			a.best = v
			return nil
		}
		c, err := v.Compare(a.best)
		if err != nil {
			return err
		}
		if (a.fn == algebra.AggMin && c < 0) || (a.fn == algebra.AggMax && c > 0) {
			a.best = v
		}
	}
	return nil
}

func (a *runningAcc) result() (seq.Value, bool) {
	if a.count == 0 {
		return seq.Value{}, false
	}
	switch a.fn {
	case algebra.AggCount:
		return seq.Int(a.count), true
	case algebra.AggSum:
		if a.isInt {
			return seq.Int(a.sumI), true
		}
		return seq.Float(a.sumF), true
	case algebra.AggAvg:
		s := a.sumF
		if a.isInt {
			s = float64(a.sumI)
		}
		return seq.Float(s / float64(a.count)), true
	default:
		return a.best, true
	}
}

// AggCumulative evaluates an unbounded-left window aggregate (cumulative
// or whole-prefix) with an O(1)-per-record running accumulator — the
// generalization of Cache-Strategy-B to sequential variable-size scopes:
// the previous output plus the newly arrived records determine the next
// output, so no window storage is needed at all.
type AggCumulative struct {
	In      Plan
	Spec    algebra.AggSpec
	OutSpan seq.Span
	schema  *seq.Schema
}

// NewAggCumulative builds the running aggregate. The window must be
// unbounded on the left and bounded on the right.
func NewAggCumulative(in Plan, spec algebra.AggSpec, outSpan seq.Span) (*AggCumulative, error) {
	if !spec.Window.LoUnbounded || spec.Window.HiUnbounded {
		return nil, fmt.Errorf("exec: cumulative evaluation requires a left-unbounded window, got %s", spec.Window)
	}
	schema, err := aggSchema(in, &spec)
	if err != nil {
		return nil, err
	}
	return &AggCumulative{In: in, Spec: spec, OutSpan: outSpan, schema: schema}, nil
}

// Info implements seq.Sequence.
func (a *AggCumulative) Info() seq.Info { return aggInfo(a.schema, a.OutSpan) }

// Probe implements seq.Sequence: falls back to the naive prefix probe.
func (a *AggCumulative) Probe(pos seq.Pos) (seq.Record, error) {
	n := AggNaive{In: a.In, Spec: a.Spec, OutSpan: a.OutSpan, schema: a.schema}
	return n.Probe(pos)
}

// Scan implements seq.Sequence.
func (a *AggCumulative) Scan(span seq.Span) seq.Cursor {
	span = span.Intersect(a.OutSpan)
	if span.IsEmpty() {
		return emptyCursor{}
	}
	if !span.Bounded() {
		return seq.ErrCursor(fmt.Errorf("exec: unbounded scan of aggregate (span %v)", span))
	}
	inSpan := a.In.Info().Span
	scanSpan := seq.Span{Start: inSpan.Start, End: seq.ClampPos(span.End + a.Spec.Window.Hi)}.Intersect(inSpan)
	in := newPull(a.In.Scan(scanSpan))
	isInt := a.schema.Field(0).Type == seq.TInt && a.Spec.Func == algebra.AggSum
	acc := newRunningAcc(a.Spec.Func, isInt)
	p := span.Start
	return &forwardCursor{
		closes: []func() error{in.close},
		next: func() (seq.Pos, seq.Record, bool, error) {
			for p <= span.End {
				pos := p
				p++
				hi := seq.ClampPos(pos + a.Spec.Window.Hi)
				for {
					e, ok, err := in.peek()
					if err != nil {
						return 0, nil, false, err
					}
					if !ok || e.Pos > hi {
						break
					}
					if err := acc.add(aggArg(&a.Spec, e.Rec)); err != nil {
						return 0, nil, false, err
					}
					in.take()
				}
				if v, ok := acc.result(); ok {
					return pos, seq.Record{v}, true, nil
				}
			}
			return 0, nil, false, nil
		},
	}
}

// Label implements Plan.
func (a *AggCumulative) Label() string {
	return fmt.Sprintf("agg-running(%s over %s)", a.Spec.Func, a.Spec.Window)
}

// Children implements Plan.
func (a *AggCumulative) Children() []Plan { return []Plan{a.In} }

// Caches implements Plan.
func (a *AggCumulative) Caches() []*cache.FIFO { return nil }

// AggSliding evaluates a bounded-window aggregate with O(1) amortized
// work per position: Cache-Strategy-A's single scan plus incremental
// accumulator maintenance instead of per-output recomputation.
type AggSliding struct {
	In      Plan
	Spec    algebra.AggSpec
	OutSpan seq.Span
	schema  *seq.Schema
}

// NewAggSliding builds the incremental sliding-window aggregate. The
// window must be bounded on both sides.
func NewAggSliding(in Plan, spec algebra.AggSpec, outSpan seq.Span) (*AggSliding, error) {
	if err := spec.Window.Validate(); err != nil {
		return nil, err
	}
	if _, fixed := spec.Window.Size(); !fixed {
		return nil, fmt.Errorf("exec: sliding evaluation requires a bounded window, got %s", spec.Window)
	}
	schema, err := aggSchema(in, &spec)
	if err != nil {
		return nil, err
	}
	return &AggSliding{In: in, Spec: spec, OutSpan: outSpan, schema: schema}, nil
}

// Info implements seq.Sequence.
func (a *AggSliding) Info() seq.Info { return aggInfo(a.schema, a.OutSpan) }

// Probe implements seq.Sequence: falls back to naive probing.
func (a *AggSliding) Probe(pos seq.Pos) (seq.Record, error) {
	n := AggNaive{In: a.In, Spec: a.Spec, OutSpan: a.OutSpan, schema: a.schema}
	return n.Probe(pos)
}

// Scan implements seq.Sequence.
func (a *AggSliding) Scan(span seq.Span) seq.Cursor {
	span = span.Intersect(a.OutSpan)
	if span.IsEmpty() {
		return emptyCursor{}
	}
	if !span.Bounded() {
		return seq.ErrCursor(fmt.Errorf("exec: unbounded scan of aggregate (span %v)", span))
	}
	w := a.Spec.Window
	inSpan := a.In.Info().Span
	scanSpan := seq.Span{
		Start: seq.ClampPos(span.Start + w.Lo),
		End:   seq.ClampPos(span.End + w.Hi),
	}.Intersect(inSpan)
	in := newPull(a.In.Scan(scanSpan))
	isInt := a.schema.Field(0).Type == seq.TInt && a.Spec.Func == algebra.AggSum
	acc := &slidingAcc{fn: a.Spec.Func, isInt: isInt}
	p := span.Start
	return &forwardCursor{
		closes: []func() error{in.close},
		next: func() (seq.Pos, seq.Record, bool, error) {
			for p <= span.End {
				pos := p
				p++
				hi := seq.ClampPos(pos + w.Hi)
				lo := seq.ClampPos(pos + w.Lo)
				for {
					e, ok, err := in.peek()
					if err != nil {
						return 0, nil, false, err
					}
					if !ok || e.Pos > hi {
						break
					}
					if err := acc.add(e.Pos, aggArg(&a.Spec, e.Rec)); err != nil {
						return 0, nil, false, err
					}
					in.take()
				}
				acc.evictBelow(lo)
				if v, ok := acc.result(); ok {
					return pos, seq.Record{v}, true, nil
				}
			}
			return 0, nil, false, nil
		},
	}
}

// Label implements Plan.
func (a *AggSliding) Label() string {
	return fmt.Sprintf("agg-sliding(%s over %s)", a.Spec.Func, a.Spec.Window)
}

// Children implements Plan.
func (a *AggSliding) Children() []Plan { return []Plan{a.In} }

// Caches implements Plan.
func (a *AggSliding) Caches() []*cache.FIFO { return nil }
