// Vectorized (batch-at-a-time) execution, the one streaming plane.
// Converted operators exchange columnar seq.Batch values of up to 1 024
// rows, capacity capped by the span, instead of one record per pull, and
// their row Scan reads that batch stream (rowScan). The operators kept
// record-at-a-time (the naive and Cache-Strategy-A ablations, collapse,
// expand) are bridged by an adapter that packs their row cursor into
// batches, so every plan runs in batch mode.
package exec

import (
	"repro/internal/expr"
	"repro/internal/seq"
)

// BatchMode selects the execution data plane.
type BatchMode uint8

// The batch modes. The zero value enables batching, preserving the
// "zero Options means the full pipeline" convention of internal/core.
const (
	// BatchAuto runs plans through the vectorized data plane.
	BatchAuto BatchMode = iota
	// BatchOff drains the plan's root row by row (its Scan); below
	// the root the plan still runs on batches.
	BatchOff
)

// Enabled reports whether the mode uses the vectorized data plane.
func (m BatchMode) Enabled() bool { return m == BatchAuto }

// CollectBatchesIn drains a batch cursor into entries, closing it. The
// context's run counters account the consumed batches and valid rows.
// The scan's total span is a sizing hint: the result slice is presized
// by extrapolating the first non-empty batch's row density across the
// whole span, replacing the append-doubling growth (and its copying)
// with one allocation on uniform outputs.
func CollectBatchesIn(cur seq.BatchCursor, ctx *seq.BatchCtx, span seq.Span) ([]seq.Entry, error) {
	defer cur.Close()
	var out []seq.Entry
	for {
		b, ok := cur.NextBatch()
		if !ok {
			break
		}
		ctx.Batches++
		valid := b.ValidRows()
		ctx.Rows += int64(valid)
		if out == nil && valid > 0 {
			est := valid
			if bl, tl := b.Span.Len(), span.Len(); bl > 0 && tl > bl {
				const maxPresize = 1 << 20 // cap a wild extrapolation at 32MB of headers
				if e := float64(valid) * float64(tl) / float64(bl); e > float64(est) {
					if e > maxPresize {
						e = maxPresize
					}
					est = int(e)
				}
			}
			out = make([]seq.Entry, 0, est)
		}
		out = b.AppendEntries(out, ctx.Intern)
	}
	return out, cur.Err()
}

// BatchScanOf opens a batch-mode stream scan on the plan. Converted
// operators run native per-column loops; everything else is bridged
// through the row-cursor adapter (seq.BatchCursorFrom), which keeps the
// whole operator set runnable in batch mode — the naive and
// cache-strategy ablation operators intentionally stay record-at-a-time.
func BatchScanOf(p Plan, span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	switch op := p.(type) {
	case *Metered:
		return op.BatchScan(span, ctx)
	case *Leaf:
		return op.BatchScan(span, ctx)
	case *Rename:
		// Pure metadata: the batch carries values, not names.
		return BatchScanOf(op.In, span, ctx)
	case *SelectOp:
		return op.BatchScan(span, ctx)
	case *ProjectOp:
		return op.BatchScan(span, ctx)
	case *PosOffsetOp:
		return op.BatchScan(span, ctx)
	case *ComposeOp:
		return op.BatchScan(span, ctx)
	case *Materialize:
		return op.BatchScan(span, ctx)
	case *AggSliding:
		return op.BatchScan(span, ctx)
	case *AggCumulative:
		return op.BatchScan(span, ctx)
	case *ValueOffsetIncremental:
		return op.BatchScan(span, ctx)
	case *Concat:
		return op.BatchScan(span, ctx)
	default:
		return seq.BatchCursorFrom(p.Scan(span), span, p.Info().Schema, ctx)
	}
}

// rowScan is the stream access of every operator with a batch scan: its
// batch cursor under a fresh context, read one valid row at a time. An
// operator thus has one stream implementation; Probe stays its
// record-at-a-time probed access (§3.3).
func rowScan(p Plan, span seq.Span) seq.Cursor {
	ctx := seq.NewBatchCtx()
	return &rowCursor{in: BatchScanOf(p, span, ctx), ctx: ctx}
}

// rowCursor hands out the valid rows of a batch stream, each batch
// decoded into entries at once (Batch.AppendEntries), as Run collects
// them.
type rowCursor struct {
	in   seq.BatchCursor
	ctx  *seq.BatchCtx
	rows []seq.Entry
	i    int
}

func (c *rowCursor) Next() (seq.Pos, seq.Record, bool) {
	for c.i >= len(c.rows) {
		b, ok := c.in.NextBatch()
		if !ok {
			return 0, nil, false
		}
		c.rows, c.i = b.AppendEntries(c.rows[:0], c.ctx.Intern), 0
	}
	e := c.rows[c.i]
	c.i++
	return e.Pos, e.Rec, true
}

func (c *rowCursor) Err() error   { return c.in.Err() }
func (c *rowCursor) Close() error { return c.in.Close() }

// BatchScan implements the leaf's batch scan: native when the base
// sequence is a seq.BatchScanner, adapted otherwise. Either way the scan
// is restricted to the access span exactly like the leaf's Scan.
func (l *Leaf) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	eff := span.Intersect(l.AccessSpan)
	if bs, ok := l.Seq.(seq.BatchScanner); ok {
		return bs.ScanBatches(eff, ctx)
	}
	return seq.BatchCursorFrom(l.Seq.Scan(eff), eff, l.Seq.Info().Schema, ctx)
}

// BatchScan meters a batch-mode scan: scan calls and emitted rows land
// in the same counters a row scan uses (so rows and calls stay
// comparable across modes), plus the batch-specific tallies.
func (w *Metered) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	w.M.ScanCalls++
	w.M.BatchCalls++
	start := clock()
	cur := BatchScanOf(w.Inner, span, ctx)
	w.M.ScanTime += clock() - start
	return &meteredBatchCursor{in: cur, m: w.M}
}

type meteredBatchCursor struct {
	in seq.BatchCursor
	m  *NodeMetrics
}

func (c *meteredBatchCursor) NextBatch() (*seq.Batch, bool) {
	start := clock()
	b, ok := c.in.NextBatch()
	c.m.ScanTime += clock() - start
	if ok {
		rows := int64(b.ValidRows())
		c.m.Batches++
		c.m.BatchRows += rows
		c.m.ScanRows += rows
	}
	return b, ok
}

func (c *meteredBatchCursor) Err() error   { return c.in.Err() }
func (c *meteredBatchCursor) Close() error { return c.in.Close() }

// predEval applies a boolean predicate to a batch by clearing the
// validity bits of rejected rows: vectorized when the expression
// compiles, row-at-a-time on a reused scratch record otherwise. Invalid
// rows are never evaluated on the row-at-a-time path (as Probe never sees
// filtered-out rows), and the vectorized subset is error-free, so
// evaluating everything eagerly is equivalent.
type predEval struct {
	pred    expr.Expr
	vec     *expr.VecPred
	scratch seq.Record
}

func newPredEval(pred expr.Expr, arity int) *predEval {
	pe := &predEval{pred: pred}
	if v, ok := expr.CompilePred(pred); ok {
		pe.vec = v
	} else {
		pe.scratch = make(seq.Record, arity)
	}
	return pe
}

func (pe *predEval) apply(b *seq.Batch, in *seq.Intern) error {
	if pe.vec != nil {
		mask := pe.vec.Eval(b, in)
		for i, keep := range mask {
			if !keep {
				b.Valid.Clear(i)
			}
		}
		return nil
	}
	n := b.Rows()
	for i := 0; i < n; i++ {
		if !b.Valid.Get(i) {
			continue
		}
		rec := b.RowInto(i, pe.scratch, in)
		keep, err := expr.EvalPred(pe.pred, rec)
		if err != nil {
			return err
		}
		if !keep {
			b.Valid.Clear(i)
		}
	}
	return nil
}

// BatchScan implements selection in place: the child's batch flows
// through with rejected rows' validity bits cleared — zero copies.
func (s *SelectOp) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	if s.pe == nil {
		s.pe = newPredEval(s.Pred, s.In.Info().Schema.NumFields())
	}
	return &selectBatchCursor{
		in:  BatchScanOf(s.In, span, ctx),
		pe:  s.pe,
		ctx: ctx,
	}
}

type selectBatchCursor struct {
	in  seq.BatchCursor
	pe  *predEval
	ctx *seq.BatchCtx
	err error
}

func (c *selectBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.err != nil {
		return nil, false
	}
	b, ok := c.in.NextBatch()
	if !ok {
		return nil, false
	}
	if err := c.pe.apply(b, c.ctx.Intern); err != nil {
		c.err = err
		return nil, false
	}
	return b, true
}

func (c *selectBatchCursor) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.in.Err()
}

func (c *selectBatchCursor) Close() error { return c.in.Close() }

// zeroValue returns a placeholder value of the type, used to keep
// column vectors aligned with the position vector on invalid rows.
func zeroValue(t seq.Type) seq.Value {
	switch t {
	case seq.TInt:
		return seq.Int(0)
	case seq.TFloat:
		return seq.Float(0)
	case seq.TString:
		return seq.Str("")
	default:
		return seq.Bool(false)
	}
}

// BatchScan implements projection: bare column items alias the input's
// vectors, compilable expressions run as tight per-column loops, and
// anything else falls back to row-at-a-time evaluation on a scratch
// record. Row identity (positions, validity, span) is shared with the
// input batch.
func (p *ProjectOp) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	if p.pc == nil {
		pc := &projCompiled{
			cols: make([]int, len(p.Items)),
			comp: make([]*expr.VecExpr, len(p.Items)),
		}
		for k, it := range p.Items {
			pc.cols[k] = -1
			if col, ok := it.Expr.(*expr.Col); ok {
				pc.cols[k] = col.Index
				continue
			}
			if ve, ok := expr.CompileExpr(it.Expr); ok {
				pc.comp[k] = ve
				continue
			}
			pc.fallback = append(pc.fallback, k)
		}
		if len(pc.fallback) > 0 {
			pc.scratch = make(seq.Record, p.In.Info().Schema.NumFields())
		}
		p.pc = pc
	}
	return &projectBatchCursor{
		in:  BatchScanOf(p.In, span, ctx),
		p:   p,
		ctx: ctx,
		out: seq.NewBatchFor(p.schema, 0), // rows aliased; computed columns grow on first use
		pc:  p.pc,
	}
}

// projCompiled is a projection's batch-mode program, compiled once per
// operator instance: per item either a bare input column index (aliased
// through), a vectorized expression, or a row-at-a-time fallback.
type projCompiled struct {
	cols     []int
	comp     []*expr.VecExpr
	fallback []int
	scratch  seq.Record
}

type projectBatchCursor struct {
	in  seq.BatchCursor
	p   *ProjectOp
	ctx *seq.BatchCtx
	out *seq.Batch
	pc  *projCompiled
	err error
}

func (c *projectBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.err != nil {
		return nil, false
	}
	b, ok := c.in.NextBatch()
	if !ok {
		return nil, false
	}
	in := c.ctx.Intern
	out := c.out
	out.AliasRowsOf(b)
	for k := range c.p.Items {
		switch {
		case c.pc.cols[k] >= 0:
			out.Cols[k] = b.Cols[c.pc.cols[k]]
		case c.pc.comp[k] != nil:
			c.pc.comp[k].EvalInto(b, in, &out.Cols[k])
		default:
			out.Cols[k].Reset()
		}
	}
	if len(c.pc.fallback) > 0 {
		// Row-major over the fallback items, so a per-row evaluation
		// error surfaces at the first failing row in position order.
		// Invalid rows get placeholder values to keep the vectors
		// aligned, and are never evaluated.
		n := b.Rows()
		for i := 0; i < n; i++ {
			if !b.Valid.Get(i) {
				for _, k := range c.pc.fallback {
					out.Cols[k].AppendValue(zeroValue(out.Cols[k].T), in)
				}
				continue
			}
			rec := b.RowInto(i, c.pc.scratch, in)
			for _, k := range c.pc.fallback {
				v, err := c.p.Items[k].Expr.Eval(rec)
				if err != nil {
					c.err = err
					return nil, false
				}
				if err := out.Cols[k].AppendValue(v, in); err != nil {
					c.err = err
					return nil, false
				}
			}
		}
	}
	return out, true
}

func (c *projectBatchCursor) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.in.Err()
}

func (c *projectBatchCursor) Close() error { return c.in.Close() }

// BatchScan implements the positional offset: the child is scanned over
// the shifted span and positions are re-addressed in place — one
// subtraction per row, no record handling at all.
func (o *PosOffsetOp) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	return &posOffsetBatchCursor{
		in:     BatchScanOf(o.In, span.Shift(o.Offset), ctx),
		offset: o.Offset,
	}
}

type posOffsetBatchCursor struct {
	in     seq.BatchCursor
	offset int64
}

func (c *posOffsetBatchCursor) NextBatch() (*seq.Batch, bool) {
	b, ok := c.in.NextBatch()
	if !ok {
		return nil, false
	}
	for i := range b.Pos {
		b.Pos[i] -= c.offset
	}
	b.Span = b.Span.Shift(-c.offset)
	return b, true
}

func (c *posOffsetBatchCursor) Err() error   { return c.in.Err() }
func (c *posOffsetBatchCursor) Close() error { return c.in.Close() }

// BatchScan implements the materialization point: the input is
// materialized once, through its row Scan whichever access comes first
// (so first-access cost and page attribution do not depend on it), and
// batches are then served straight off the materialized entries.
func (m *Materialize) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	if err := m.ensure(); err != nil {
		return seq.ErrBatchCursor(err)
	}
	return m.mat.ScanBatches(span, ctx)
}

// batchRows iterates the valid rows of a batch stream: the pull-cursor
// (peek/take) idiom lifted to batches, used by the operators that merge
// or fold row streams (compose, aggregates, value offsets).
type batchRows struct {
	cur  seq.BatchCursor
	b    *seq.Batch
	i    int
	done bool
}

func newBatchRows(cur seq.BatchCursor) *batchRows { return &batchRows{cur: cur} }

// peek positions the reader at the next valid row and returns its
// position. ok is false at end of stream or on error.
func (r *batchRows) peek() (seq.Pos, bool, error) {
	for {
		if r.done {
			return 0, false, nil
		}
		if r.b != nil {
			for r.i < r.b.Rows() {
				if r.b.Valid.Get(r.i) {
					return r.b.Pos[r.i], true, nil
				}
				r.i++
			}
		}
		b, ok := r.cur.NextBatch()
		if !ok {
			r.done = true
			return 0, false, r.cur.Err()
		}
		r.b, r.i = b, 0
	}
}

// take consumes the current row (only valid after a successful peek).
func (r *batchRows) take() { r.i++ }

func (r *batchRows) close() error { return r.cur.Close() }

// BatchScan implements compose. Lockstep merges the two batch streams
// with a two-pointer walk over their valid rows; the stream-probe
// strategies batch the streamed side and probe the other per row (the
// probes go through the Plan interface, so instrumentation sees one
// probe per streamed row, Join-Strategy-A's pattern). The join
// predicate is applied batch-wise afterwards, clearing validity bits.
func (c *ComposeOp) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	if !c.NoNarrow {
		span = span.Intersect(c.Info().Span)
	}
	if span.IsEmpty() {
		return seq.EmptyBatchCursor()
	}
	var pe *predEval
	if c.Pred != nil {
		pe = newPredEval(c.Pred, c.schema.NumFields())
	}
	lw := c.L.Info().Schema.NumFields()
	size := ctx.SizeFor(span)
	switch c.Strategy {
	case ComposeStreamLeft:
		return &streamProbeBatchCursor{
			c: c, ctx: ctx, pe: pe, lw: lw,
			sc:    BatchScanOf(c.L, span, ctx),
			probe: c.R,
			out:   seq.NewBatchFor(c.schema, size),
		}
	case ComposeStreamRight:
		return &streamProbeBatchCursor{
			c: c, ctx: ctx, pe: pe, lw: lw, swapped: true,
			sc:    BatchScanOf(c.R, span, ctx),
			probe: c.L,
			out:   seq.NewBatchFor(c.schema, size),
		}
	default:
		return &lockstepBatchCursor{
			c: c, ctx: ctx, pe: pe, lw: lw,
			lc:   newBatchRows(BatchScanOf(c.L, span, ctx)),
			rc:   newBatchRows(BatchScanOf(c.R, span, ctx)),
			out:  seq.NewBatchFor(c.schema, size),
			next: span.Start,
			end:  span.End,
		}
	}
}

type lockstepBatchCursor struct {
	c        *ComposeOp
	ctx      *seq.BatchCtx
	lc, rc   *batchRows
	out      *seq.Batch
	pe       *predEval
	lw       int
	next     seq.Pos
	end      seq.Pos
	err      error
	drained  bool
	finished bool
}

func (c *lockstepBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.err != nil || c.finished {
		return nil, false
	}
	out := c.out
	out.Reset()
	out.Span = seq.Span{Start: c.next, End: c.end}
	size := c.ctx.Size
	for !c.drained && out.Rows() < size {
		// peek refills whichever side has exhausted its current batch
		// (and skips leading invalid rows); the merge itself then runs as
		// a tight two-pointer loop over the two in-hand batches, with no
		// per-row function calls.
		if _, ok, err := c.lc.peek(); !ok {
			if err != nil {
				c.err = err
				return nil, false
			}
			c.drained = true
			break
		}
		if _, ok, err := c.rc.peek(); !ok {
			if err != nil {
				c.err = err
				return nil, false
			}
			c.drained = true
			break
		}
		lb, rb := c.lc.b, c.rc.b
		li, ri := c.lc.i, c.rc.i
		lp, rp := lb.Pos, rb.Pos
		for li < len(lp) && ri < len(rp) && out.Rows() < size {
			// Word-scan past invalid rows (a selective predicate upstream
			// leaves long cleared runs), then gallop the laggard side to
			// the leader's position instead of stepping row by row.
			if li = lb.Valid.NextSet(li, len(lp)); li >= len(lp) {
				break
			}
			if ri = rb.Valid.NextSet(ri, len(rp)); ri >= len(rp) {
				break
			}
			switch {
			case lp[li] < rp[ri]:
				li = searchPosFrom(lp, li+1, rp[ri])
			case rp[ri] < lp[li]:
				ri = searchPosFrom(rp, ri+1, lp[li])
			default:
				out.AppendPos(lp[li])
				for j := 0; j < c.lw; j++ {
					out.Cols[j].AppendFrom(&lb.Cols[j], li)
				}
				for j := c.lw; j < len(out.Cols); j++ {
					out.Cols[j].AppendFrom(&rb.Cols[j-c.lw], ri)
				}
				li++
				ri++
			}
		}
		c.lc.i, c.rc.i = li, ri
	}
	if c.drained {
		// Final batch: covers the rest of the span.
		c.finished = true
	} else {
		out.Span.End = out.Pos[out.Rows()-1]
		c.next = out.Span.End + 1 //seqvet:ignore spanarith row positions lie inside the bounded scan span
		if c.next > c.end {
			c.finished = true
		}
	}
	if c.pe != nil {
		if err := c.pe.apply(out, c.ctx.Intern); err != nil {
			c.err = err
			return nil, false
		}
	}
	return out, true
}

// searchPosFrom returns the smallest index >= lo whose position is >=
// target, assuming s is ascending and (when lo > 0) s[lo-1] < target.
// It gallops — exponential probe, then binary search inside the bracket
// — so a short hop costs O(1) and a long skip O(log distance).
func searchPosFrom(s []seq.Pos, lo int, target seq.Pos) int {
	n := len(s)
	if lo >= n || s[lo] >= target {
		return lo
	}
	step := 1
	for lo+step < n && s[lo+step] < target {
		step <<= 1
	}
	i, j := lo+step>>1+1, lo+step
	if j > n {
		j = n
	}
	for i < j {
		m := int(uint(i+j) >> 1)
		if s[m] < target {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

func (c *lockstepBatchCursor) Err() error { return c.err }

func (c *lockstepBatchCursor) Close() error {
	err := c.lc.close()
	if e := c.rc.close(); e != nil && err == nil {
		err = e
	}
	return err
}

type streamProbeBatchCursor struct {
	c       *ComposeOp
	ctx     *seq.BatchCtx
	sc      seq.BatchCursor
	probe   Plan
	swapped bool
	out     *seq.Batch
	pe      *predEval
	lw      int
	err     error
}

func (c *streamProbeBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.err != nil {
		return nil, false
	}
	sb, ok := c.sc.NextBatch()
	if !ok {
		return nil, false
	}
	out := c.out
	out.Reset()
	out.Span = sb.Span
	n := sb.Rows()
	width := len(out.Cols)
	for i := 0; i < n; i++ {
		if !sb.Valid.Get(i) {
			continue
		}
		pos := sb.Pos[i]
		prec, err := c.probe.Probe(pos)
		if err != nil {
			c.err = err
			return nil, false
		}
		if prec.IsNull() {
			continue
		}
		out.AppendPos(pos)
		if !c.swapped {
			// Streamed side is the left input.
			for j := 0; j < c.lw; j++ {
				out.Cols[j].AppendFrom(&sb.Cols[j], i)
			}
			for j := c.lw; j < width; j++ {
				if err := out.Cols[j].AppendValue(prec[j-c.lw], c.ctx.Intern); err != nil {
					c.err = err
					return nil, false
				}
			}
		} else {
			// Streamed side is the right input; probe answers fill the
			// left columns.
			for j := 0; j < c.lw; j++ {
				if err := out.Cols[j].AppendValue(prec[j], c.ctx.Intern); err != nil {
					c.err = err
					return nil, false
				}
			}
			for j := c.lw; j < width; j++ {
				out.Cols[j].AppendFrom(&sb.Cols[j-c.lw], i)
			}
		}
	}
	if c.pe != nil {
		if err := c.pe.apply(out, c.ctx.Intern); err != nil {
			c.err = err
			return nil, false
		}
	}
	return out, true
}

func (c *streamProbeBatchCursor) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.sc.Err()
}

func (c *streamProbeBatchCursor) Close() error { return c.sc.Close() }
