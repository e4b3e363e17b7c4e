package exec

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/seq"
)

// valueOffsetInfo computes the common Info of a value-offset operator.
func valueOffsetInfo(in Plan, outSpan seq.Span) seq.Info {
	info := in.Info()
	info.Span = outSpan
	info.Density = 1
	return info
}

// ValueOffsetNaive evaluates a value offset with the naive algorithm of
// §3.5/§4.1.2: each output position walks the input backward (or
// forward) probing position by position until it has seen |offset|
// non-Null records. Its cost explodes when matching input records are
// rare — the behavior Figure 5.B's Cache-Strategy-B removes.
type ValueOffsetNaive struct {
	In      Plan
	Offset  int64
	OutSpan seq.Span
}

// NewValueOffsetNaive builds the naive value offset. outSpan bounds
// stream emission (the operator's output is dense, so scans enumerate
// every position of the span).
func NewValueOffsetNaive(in Plan, offset int64, outSpan seq.Span) (*ValueOffsetNaive, error) {
	if offset == 0 {
		return nil, fmt.Errorf("exec: value offset must be non-zero")
	}
	return &ValueOffsetNaive{In: in, Offset: offset, OutSpan: outSpan}, nil
}

// Info implements seq.Sequence.
func (v *ValueOffsetNaive) Info() seq.Info { return valueOffsetInfo(v.In, v.OutSpan) }

// Probe implements seq.Sequence: the backward/forward probing walk.
func (v *ValueOffsetNaive) Probe(pos seq.Pos) (seq.Record, error) {
	return probeValueOffset(v.In, v.Offset, pos)
}

func probeValueOffset(in Plan, offset int64, pos seq.Pos) (seq.Record, error) {
	inSpan := in.Info().Span
	if inSpan.IsEmpty() {
		return nil, nil
	}
	need := offset
	step := seq.Pos(1)
	p := pos + 1
	if offset < 0 {
		need = -offset
		step = -1
		p = pos - 1
		if p > inSpan.End {
			p = inSpan.End
		}
	} else if p < inSpan.Start {
		p = inSpan.Start
	}
	var count int64
	for inSpan.Contains(p) {
		r, err := in.Probe(p)
		if err != nil {
			return nil, err
		}
		if !r.IsNull() {
			count++
			if count == need {
				return r, nil
			}
		}
		p += step
	}
	return nil, nil
}

// Scan implements seq.Sequence: dense emission, probing per position.
func (v *ValueOffsetNaive) Scan(span seq.Span) seq.Cursor { return probeScan(v, span, "value offset") }

// Label implements Plan.
func (v *ValueOffsetNaive) Label() string {
	return fmt.Sprintf("voffset-naive(%+d)", v.Offset)
}

// Children implements Plan.
func (v *ValueOffsetNaive) Children() []Plan { return []Plan{v.In} }

// Caches implements Plan.
func (v *ValueOffsetNaive) Caches() []*cache.FIFO { return nil }

// ValueOffsetIncremental evaluates a value offset with Cache-Strategy-B
// (§3.5): a single input scan feeds a FIFO cache of the last (or next)
// |offset| non-Null records, and each output position reads its answer
// from the cache — the record at a position is either the cached record
// or a newly arrived input record. One scan, |offset| cache slots,
// O(1) work per position.
type ValueOffsetIncremental struct {
	In      Plan
	Offset  int64
	OutSpan seq.Span
	cache   *cache.FIFO
}

// NewValueOffsetIncremental builds the Cache-Strategy-B value offset.
func NewValueOffsetIncremental(in Plan, offset int64, outSpan seq.Span) (*ValueOffsetIncremental, error) {
	if offset == 0 {
		return nil, fmt.Errorf("exec: value offset must be non-zero")
	}
	k := offset
	if k < 0 {
		k = -k
	}
	return &ValueOffsetIncremental{
		In: in, Offset: offset, OutSpan: outSpan,
		cache: cache.NewFIFO(int(k)),
	}, nil
}

// Info implements seq.Sequence.
func (v *ValueOffsetIncremental) Info() seq.Info { return valueOffsetInfo(v.In, v.OutSpan) }

// Probe implements seq.Sequence. The incremental algorithm is not usable
// with probed access (§4.1.2), so probes fall back to the naive walk.
func (v *ValueOffsetIncremental) Probe(pos seq.Pos) (seq.Record, error) {
	return probeValueOffset(v.In, v.Offset, pos)
}

// Scan implements seq.Sequence.
func (v *ValueOffsetIncremental) Scan(span seq.Span) seq.Cursor { return rowScan(v, span) }

// historyStartGate is the minimum number of skipped prefix positions
// before a backward-offset scan attempts the probing shortcut below.
// Scans starting at (or near) the input's own start — the common serial
// case — keep the exact page-access pattern they always had.
const historyStartGate = 256

// historyStart returns the position the input scan must begin at so the
// ring holds the correct last-|l| non-Null records when the first output
// position is produced. Scanning from the input's start is always
// correct — the ring evicts all but the |l| most recent records — but a
// scan that begins far into the sequence (a partition of a parallel run,
// or a narrow requested range) would re-read the entire prefix for
// nothing. When the skipped prefix is large, walk backward probing the
// input until |l| non-Null records are found and start there instead:
// the Definition 3.3 effective-scope broadening, realized exactly. The
// walk is bounded by a density-derived budget so a pathologically empty
// region cannot turn the shortcut into a probe storm; on exhaustion it
// falls back to the full prefix.
func (v *ValueOffsetIncremental) historyStart(first seq.Pos, inSpan seq.Span) (seq.Pos, error) {
	start := inSpan.Start
	if first-historyStartGate <= start {
		return start, nil
	}
	need := -v.Offset
	density := v.In.Info().Density
	if density <= 0 {
		return start, nil // unknown density: no bounded walk possible
	}
	budget := int64(float64(need)/density)*8 + 64
	// The walk probes position by position; it only pays off when the
	// prefix it skips is much longer than the walk itself (a probe costs
	// roughly a page, a scanned position a fraction of one).
	if first-start <= budget*64 {
		return start, nil
	}
	lo := seq.ClampPos(first - budget)
	var found int64
	for p := first - 1; p >= lo; p-- {
		r, err := v.In.Probe(p)
		if err != nil {
			return 0, err
		}
		if !r.IsNull() {
			found++
			if found == need {
				return p, nil
			}
		}
	}
	return start, nil
}

// Label implements Plan.
func (v *ValueOffsetIncremental) Label() string {
	return fmt.Sprintf("voffset-cacheB(%+d)", v.Offset)
}

// Children implements Plan.
func (v *ValueOffsetIncremental) Children() []Plan { return []Plan{v.In} }

// Caches implements Plan.
func (v *ValueOffsetIncremental) Caches() []*cache.FIFO { return []*cache.FIFO{v.cache} }

type emptyCursor struct{}

func (emptyCursor) Next() (seq.Pos, seq.Record, bool) { return 0, nil, false }
func (emptyCursor) Err() error                        { return nil }
func (emptyCursor) Close() error                      { return nil }
