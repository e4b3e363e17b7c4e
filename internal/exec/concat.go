package exec

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/seq"
)

// Concat splices two plans computing the same sequence along a position
// boundary: positions at or below Boundary come from Left, positions
// above it from Right. The optimizer uses it for partial-span
// materialized-view matching — a view covering only a prefix of the
// block's access span serves that prefix while the uncovered tail is
// recomputed — so both sides must evaluate the same block, just over
// complementary windows.
type Concat struct {
	Left, Right Plan
	Boundary    seq.Pos
}

// NewConcat builds the splice. Both inputs must share a schema.
func NewConcat(left, right Plan, boundary seq.Pos) (*Concat, error) {
	ls, rs := left.Info().Schema, right.Info().Schema
	if ls.NumFields() != rs.NumFields() {
		return nil, fmt.Errorf("exec: concat arity mismatch: %d vs %d", ls.NumFields(), rs.NumFields())
	}
	for i := 0; i < ls.NumFields(); i++ {
		if ls.Field(i).Type != rs.Field(i).Type {
			return nil, fmt.Errorf("exec: concat type mismatch at %d: %s vs %s",
				i, ls.Field(i).Type, rs.Field(i).Type)
		}
	}
	return &Concat{Left: left, Right: right, Boundary: boundary}, nil
}

// leftSpan and rightSpan restrict a requested span to each side's window.
func (c *Concat) leftSpan(span seq.Span) seq.Span {
	return span.Intersect(seq.Span{Start: seq.MinPos, End: c.Boundary})
}

func (c *Concat) rightSpan(span seq.Span) seq.Span {
	if c.Boundary >= seq.MaxPos {
		return seq.EmptySpan
	}
	return span.Intersect(seq.Span{Start: c.Boundary + 1, End: seq.MaxPos})
}

// Info implements seq.Sequence: the hull of the two sides' windows.
func (c *Concat) Info() seq.Info {
	li, ri := c.Left.Info(), c.Right.Info()
	info := seq.Info{Schema: li.Schema}
	ls, rs := c.leftSpan(li.Span), c.rightSpan(ri.Span)
	switch {
	case ls.IsEmpty():
		info.Span, info.Density = rs, ri.Density
	case rs.IsEmpty():
		info.Span, info.Density = ls, li.Density
	default:
		info.Span = seq.Span{Start: ls.Start, End: rs.End}
		if n := info.Span.Len(); info.Span.Bounded() && n > 0 {
			occupied := li.Density*float64(ls.Len()) + ri.Density*float64(rs.Len())
			info.Density = occupied / float64(n)
		} else {
			info.Density = ri.Density
		}
	}
	return info
}

// Scan implements seq.Sequence.
func (c *Concat) Scan(span seq.Span) seq.Cursor { return rowScan(c, span) }

// BatchScan drains the left window, then the right. The right leg's
// first span starts where the left leg's last ended, short of Boundary
// when the left holds nothing up to it, so the legs tile the scan.
func (c *Concat) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	ls, rs := c.leftSpan(span), c.rightSpan(span)
	cur := &concatBatchCursor{BatchCursor: seq.EmptyBatchCursor(), next: rs.Start}
	if !ls.IsEmpty() {
		cur.BatchCursor, cur.next = BatchScanOf(c.Left, ls, ctx), ls.Start
	}
	if ls.IsEmpty() || !rs.IsEmpty() {
		cur.right = func() seq.BatchCursor { return BatchScanOf(c.Right, rs, ctx) }
	}
	return cur
}

type concatBatchCursor struct {
	seq.BatchCursor                        // the leg being drained
	right           func() seq.BatchCursor // opens the right leg; nil once opened
	next            seq.Pos                // right after the last span emitted
}

func (c *concatBatchCursor) NextBatch() (*seq.Batch, bool) {
	b, ok := c.BatchCursor.NextBatch()
	if !ok && c.right != nil && c.Err() == nil {
		if err := c.Close(); err != nil {
			c.BatchCursor = seq.ErrBatchCursor(err)
			return nil, false
		}
		c.BatchCursor, c.right = c.right(), nil
		if b, ok = c.BatchCursor.NextBatch(); ok {
			b.Span.Start = c.next
		}
	}
	if ok {
		c.next = b.Span.End + 1 //seqvet:ignore spanarith batch spans lie inside the bounded scan span
	}
	return b, ok
}

// Probe implements seq.Sequence: route by position.
func (c *Concat) Probe(pos seq.Pos) (seq.Record, error) {
	if pos <= c.Boundary {
		return c.Left.Probe(pos)
	}
	return c.Right.Probe(pos)
}

// Label implements Plan.
func (c *Concat) Label() string { return fmt.Sprintf("concat(@%d)", c.Boundary) }

// Children implements Plan.
func (c *Concat) Children() []Plan { return []Plan{c.Left, c.Right} }

// Caches implements Plan.
func (c *Concat) Caches() []*cache.FIFO { return nil }
