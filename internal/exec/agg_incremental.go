package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/cache"
	"repro/internal/seq"
)

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
func (a *AggCumulative) Scan(span seq.Span) seq.Cursor { return rowScan(a, span) }

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
func (a *AggSliding) Scan(span seq.Span) seq.Cursor { return rowScan(a, span) }

// Label implements Plan.
func (a *AggSliding) Label() string {
	return fmt.Sprintf("agg-sliding(%s over %s)", a.Spec.Func, a.Spec.Window)
}

// Children implements Plan.
func (a *AggSliding) Children() []Plan { return []Plan{a.In} }

// Caches implements Plan.
func (a *AggSliding) Caches() []*cache.FIFO { return nil }
