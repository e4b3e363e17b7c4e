package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/cache"
	"repro/internal/seq"
)

// aggInfo computes the Info shared by the aggregate operators.
func aggInfo(schema *seq.Schema, outSpan seq.Span) seq.Info {
	return seq.Info{Schema: schema, Span: outSpan, Density: 1}
}

// aggValues extracts the aggregate argument from an input record.
func aggArg(spec *algebra.AggSpec, r seq.Record) seq.Value {
	if spec.Arg >= 0 {
		return r[spec.Arg]
	}
	return seq.Int(1) // Count over whole records
}

// outSchema builds the single-attribute schema of an aggregate output.
func aggSchema(in Plan, spec *algebra.AggSpec) (*seq.Schema, error) {
	name := spec.As
	if name == "" {
		name = spec.Func.String()
	}
	typ := seq.TInt
	if spec.Arg >= 0 {
		var err error
		typ, err = spec.Func.ResultType(in.Info().Schema.Field(spec.Arg).Type)
		if err != nil {
			return nil, err
		}
	}
	return seq.NewSchema(seq.Field{Name: name, Type: typ})
}

// AggNaive evaluates a windowed aggregate with the naive algorithm
// (§4.1.2): every output position probes the input at each position of
// its scope. Cost per output record is proportional to the window size
// (unboundedly large for cumulative windows).
type AggNaive struct {
	In      Plan
	Spec    algebra.AggSpec
	OutSpan seq.Span
	schema  *seq.Schema
}

// NewAggNaive builds the naive windowed aggregate.
func NewAggNaive(in Plan, spec algebra.AggSpec, outSpan seq.Span) (*AggNaive, error) {
	if err := spec.Window.Validate(); err != nil {
		return nil, err
	}
	schema, err := aggSchema(in, &spec)
	if err != nil {
		return nil, err
	}
	return &AggNaive{In: in, Spec: spec, OutSpan: outSpan, schema: schema}, nil
}

// Info implements seq.Sequence.
func (a *AggNaive) Info() seq.Info { return aggInfo(a.schema, a.OutSpan) }

// Probe implements seq.Sequence.
func (a *AggNaive) Probe(pos seq.Pos) (seq.Record, error) {
	span := a.Spec.Window.Positions(pos).Intersect(a.In.Info().Span)
	var vals []seq.Value
	for p := span.Start; !span.IsEmpty() && p <= span.End; p++ {
		r, err := a.In.Probe(p)
		if err != nil {
			return nil, err
		}
		if !r.IsNull() {
			vals = append(vals, aggArg(&a.Spec, r))
		}
	}
	v, ok, err := a.Spec.Func.Apply(vals)
	if err != nil || !ok {
		return nil, err
	}
	return seq.Record{v}, nil
}

// Scan implements seq.Sequence: dense emission, probing per position.
func (a *AggNaive) Scan(span seq.Span) seq.Cursor { return probeScan(a, span, "aggregate") }

// Label implements Plan.
func (a *AggNaive) Label() string {
	return fmt.Sprintf("agg-naive(%s over %s)", a.Spec.Func, a.Spec.Window)
}

// Children implements Plan.
func (a *AggNaive) Children() []Plan { return []Plan{a.In} }

// Caches implements Plan.
func (a *AggNaive) Caches() []*cache.FIFO { return nil }

// AggCached evaluates a bounded-window aggregate with Cache-Strategy-A
// (§3.5, Figure 5.A): a single input scan feeds a FIFO cache of the
// window's records; each output position aggregates over the cache, so
// the input sequence is accessed exactly once per record even though each
// record participates in up to w aggregations.
type AggCached struct {
	In      Plan
	Spec    algebra.AggSpec
	OutSpan seq.Span
	schema  *seq.Schema
	cache   *cache.FIFO
}

// NewAggCached builds the Cache-Strategy-A aggregate. The window must be
// bounded on both sides.
func NewAggCached(in Plan, spec algebra.AggSpec, outSpan seq.Span) (*AggCached, error) {
	if err := spec.Window.Validate(); err != nil {
		return nil, err
	}
	size, fixed := spec.Window.Size()
	if !fixed {
		return nil, fmt.Errorf("exec: Cache-Strategy-A requires a bounded window, got %s", spec.Window)
	}
	schema, err := aggSchema(in, &spec)
	if err != nil {
		return nil, err
	}
	return &AggCached{
		In: in, Spec: spec, OutSpan: outSpan, schema: schema,
		cache: cache.NewFIFO(int(size)),
	}, nil
}

// Info implements seq.Sequence.
func (a *AggCached) Info() seq.Info { return aggInfo(a.schema, a.OutSpan) }

// Probe implements seq.Sequence: probes bypass the cache (the cache only
// pays off under a positional stream).
func (a *AggCached) Probe(pos seq.Pos) (seq.Record, error) {
	n := AggNaive{In: a.In, Spec: a.Spec, OutSpan: a.OutSpan, schema: a.schema}
	return n.Probe(pos)
}

// Scan implements seq.Sequence.
func (a *AggCached) Scan(span seq.Span) seq.Cursor {
	span = span.Intersect(a.OutSpan)
	if span.IsEmpty() {
		return emptyCursor{}
	}
	if !span.Bounded() {
		return seq.ErrCursor(fmt.Errorf("exec: unbounded scan of aggregate (span %v)", span))
	}
	a.cache.Reset()
	w := a.Spec.Window
	inSpan := a.In.Info().Span
	scanSpan := seq.Span{
		Start: seq.ClampPos(span.Start + w.Lo),
		End:   seq.ClampPos(span.End + w.Hi),
	}.Intersect(inSpan)
	in := newPull(a.In.Scan(scanSpan))
	p := span.Start
	vals := make([]seq.Value, 0, a.cache.Cap()) // reused across positions
	return &forwardCursor{
		closes: []func() error{in.close},
		next: func() (seq.Pos, seq.Record, bool, error) {
			for p <= span.End {
				pos := p
				p++
				hi := seq.ClampPos(pos + w.Hi)
				lo := seq.ClampPos(pos + w.Lo)
				// Absorb input records up to the window's right edge.
				for {
					e, ok, err := in.peek()
					if err != nil {
						return 0, nil, false, err
					}
					if !ok || e.Pos > hi {
						break
					}
					a.cache.Put(e.Pos, e.Rec)
					in.take()
				}
				a.cache.EvictBelow(lo)
				vals = vals[:0]
				a.cache.Ascend(func(e seq.Entry) bool {
					vals = append(vals, aggArg(&a.Spec, e.Rec))
					return true
				})
				v, ok, err := a.Spec.Func.Apply(vals)
				if err != nil {
					return 0, nil, false, err
				}
				if ok {
					return pos, seq.Record{v}, true, nil
				}
			}
			return 0, nil, false, nil
		},
	}
}

// Label implements Plan.
func (a *AggCached) Label() string {
	return fmt.Sprintf("agg-cacheA(%s over %s)", a.Spec.Func, a.Spec.Window)
}

// Children implements Plan.
func (a *AggCached) Children() []Plan { return []Plan{a.In} }

// Caches implements Plan.
func (a *AggCached) Caches() []*cache.FIFO { return []*cache.FIFO{a.cache} }
