// Native batch scans for the in-memory page store. Page and record
// accounting is position-for-position identical to the scalar cursors —
// the same pages are charged in the same order — but the counters are
// accumulated locally per batch and published with one atomic add per
// counter per batch, removing the per-record atomic traffic from the
// hot loop. The disk-backed snapshots do not implement the batch
// protocol and are bridged by the execution layer's adapter, which
// preserves their per-record accounting exactly.
package storage

import (
	"sort"

	"repro/internal/seq"
)

// ScanBatches implements seq.BatchScanner: the walk, the page charging
// (dense: every page entered, holding records or not; sparse: every page
// a record is delivered from, plus the index descent for a mid-file
// start) and the record accounting mirror Scan exactly.
func (s *Snapshot) ScanBatches(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	span = span.Intersect(s.v.span)
	if span.IsEmpty() || len(s.v.pages) == 0 {
		return seq.EmptyBatchCursor()
	}
	c := &batchCursor{s: s, ctx: ctx, pos: span.Start, end: span.End, page: -1}
	if s.v.kind == KindSparse {
		c.pi, c.j = s.seek(span.Start)
	}
	return c
}

type batchCursor struct {
	s     *Snapshot
	ctx   *seq.BatchCtx
	batch *seq.Batch
	ents  []seq.Entry // dense: scratch window, reused per batch
	pi, j int         // sparse: current page, next entry within it
	pos   seq.Pos     // start of the next batch's span
	end   seq.Pos
	page  int // last page charged; -1 before the first touch
	err   error
	done  bool
}

func (c *batchCursor) NextBatch() (*seq.Batch, bool) {
	if c.done || c.err != nil {
		return nil, false
	}
	if c.batch == nil {
		c.batch = seq.NewBatchFor(c.s.schema, c.ctx.Size)
	}
	b := c.batch
	b.Reset()
	b.Span = seq.Span{Start: c.pos, End: c.end}
	var pages int64
	var err error
	if c.s.v.kind == KindDense {
		pages, err = c.fillDense(b)
	} else {
		pages, err = c.fillSparse(b)
	}
	if err != nil {
		c.err = err
		return nil, false
	}
	if pages != 0 {
		c.s.stats.SeqPages.Add(pages)
	}
	if n := b.Rows(); n != 0 {
		c.s.stats.SeqRecords.Add(int64(n))
	}
	if !c.done {
		// More to come: this batch covers up to where the next resumes.
		b.Span.End = c.pos - 1
	}
	return b, true
}

// fillDense walks consecutive positions from c.pos, page by page, until
// the batch is full or the span ends, and returns the pages entered.
func (c *batchCursor) fillDense(b *seq.Batch) (pages int64, err error) {
	if c.ents == nil {
		// A short scan never fills a batch; do not pay for one.
		c.ents = make([]seq.Entry, 0, min(int64(c.ctx.Size), c.end-c.pos+1)) //seqvet:ignore spanarith bounded dense span
	}
	ents := c.ents[:0]
	for c.pos <= c.end && len(ents) < c.ctx.Size {
		pi := c.s.densePage(c.pos)
		if pi != c.page {
			c.page = pi
			pages++
		}
		pg := c.s.v.pages[pi]
		off := c.pos - pg.first
		lim := min(int64(len(pg.slots)), c.end-pg.first+1)
		for ; off < lim && len(ents) < c.ctx.Size; off++ {
			if r := pg.slots[off]; r != nil {
				ents = append(ents, seq.Entry{Pos: pg.first + off, Rec: r}) //seqvet:ignore spanarith bounded dense span
			}
		}
		c.pos = pg.first + off //seqvet:ignore spanarith bounded dense span
	}
	c.ents = ents
	c.done = c.pos > c.end
	return pages, b.AppendEntryRows(ents, c.ctx.Intern)
}

// fillSparse appends page windows until the batch is full or the next
// entry lies past the span, and returns the pages records came from.
func (c *batchCursor) fillSparse(b *seq.Batch) (pages int64, err error) {
	vp := c.s.v.pages
	for c.pi < len(vp) && b.Rows() < c.ctx.Size {
		win := vp[c.pi].entries[c.j:]
		if room := c.ctx.Size - b.Rows(); len(win) > room {
			win = win[:room]
		}
		if n := len(win); n > 0 && win[n-1].Pos > c.end {
			win = win[:sort.Search(n, func(i int) bool { return win[i].Pos > c.end })]
			c.done = true
		}
		if len(win) > 0 {
			if c.pi != c.page {
				c.page = c.pi
				pages++
			}
			if err := b.AppendEntryRows(win, c.ctx.Intern); err != nil {
				return pages, err
			}
			c.j += len(win)
		}
		if c.done {
			return pages, nil
		}
		if c.j == len(vp[c.pi].entries) {
			c.pi, c.j = c.pi+1, 0
		}
	}
	// A full batch ends at its last row; the scan is over when no entry
	// inside the span follows it.
	if c.pi == len(vp) || vp[c.pi].entries[c.j].Pos > c.end {
		c.done = true
	} else {
		c.pos = b.Pos[b.Rows()-1] + 1 //seqvet:ignore spanarith row positions lie inside the bounded scan span
	}
	return pages, nil
}

func (c *batchCursor) Err() error   { return c.err }
func (c *batchCursor) Close() error { return nil }

// ScanBatches implements seq.BatchScanner for the metering wrapper:
// batch-capable inner stores are delegated to with the shared-counter
// movement credited to the consumer around the open and around each
// batch; anything else is bridged through the wrapper's own scalar Scan,
// preserving its per-record crediting.
func (m *metered) ScanBatches(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	if bs, ok := m.inner.(seq.BatchScanner); ok {
		before := m.inner.Stats().Snapshot()
		cur := bs.ScanBatches(span, ctx)
		m.credit(before)
		return &meteredBatchCursor{m: m, in: cur}
	}
	return seq.BatchCursorFrom(m.Scan(span), span, m.inner.Info().Schema, ctx)
}

type meteredBatchCursor struct {
	m  *metered
	in seq.BatchCursor
}

func (c *meteredBatchCursor) NextBatch() (*seq.Batch, bool) {
	before := c.m.inner.Stats().Snapshot()
	b, ok := c.in.NextBatch()
	c.m.credit(before)
	return b, ok
}

func (c *meteredBatchCursor) Err() error   { return c.in.Err() }
func (c *meteredBatchCursor) Close() error { return c.in.Close() }
