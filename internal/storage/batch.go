// Native batch scans for the page store. Page and record accounting is
// position-for-position identical to the scalar cursors — the same
// pages are charged in the same order, and each page is fetched once as
// the scan enters it — but the counters are accumulated locally per
// batch and published with one atomic add per counter per batch,
// removing the per-record atomic traffic from the hot loop.
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
		c.pi, c.j, c.pg, c.err = s.seek(span.Start)
	}
	return c
}

type batchCursor struct {
	s     *Snapshot
	ctx   *seq.BatchCtx
	batch *seq.Batch
	ents  []seq.Entry // dense: scratch window, reused per batch
	pg    *Page       // the page the scan is on; sparse: nil until entered
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
		if pi := c.s.densePage(c.pos); pi != c.page {
			c.page = pi
			pages++
			if c.pg, err = c.s.page(pi); err != nil {
				return pages, err
			}
		}
		pg := c.pg
		off := c.pos - pg.First
		lim := min(int64(len(pg.Slots)), c.end-pg.First+1)
		for ; off < lim && len(ents) < c.ctx.Size; off++ {
			if r := pg.Slots[off]; r != nil {
				ents = append(ents, seq.Entry{Pos: pg.First + off, Rec: r}) //seqvet:ignore spanarith bounded dense span
			}
		}
		c.pos = pg.First + off //seqvet:ignore spanarith bounded dense span
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
		if c.pg == nil {
			// Enter the next page only if it starts inside the span.
			if vp[c.pi].First > c.end {
				c.done = true
				return pages, nil
			}
			if c.pg, err = c.s.page(c.pi); err != nil {
				return pages, err
			}
		}
		win := c.pg.Entries[c.j:]
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
		if c.j == len(c.pg.Entries) {
			c.pi, c.j, c.pg = c.pi+1, 0, nil
		}
	}
	// A full batch ends at its last row; the scan is over when no entry
	// inside the span follows it. A page not yet entered starts at its
	// First, so deciding does not fetch it.
	if c.pi < len(vp) {
		next := vp[c.pi].First
		if c.pg != nil {
			next = c.pg.Entries[c.j].Pos
		}
		if next <= c.end {
			c.pos = b.Pos[b.Rows()-1] + 1 //seqvet:ignore spanarith row positions lie inside the bounded scan span
			return pages, nil
		}
	}
	c.done = true
	return pages, nil
}

func (c *batchCursor) Err() error   { return c.err }
func (c *batchCursor) Close() error { return nil }

// ScanBatches implements seq.BatchScanner for the metering wrapper: the
// inner store's batch scan, with the shared-counter movement credited to
// the consumer around the open and around each batch.
func (m *metered) ScanBatches(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	before := m.inner.Stats().Snapshot()
	cur := m.inner.ScanBatches(span, ctx)
	m.credit(before)
	return &meteredBatchCursor{m: m, in: cur}
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
