// Batch-mode windowed aggregates and value offsets, the one stream
// implementation of each (their row Scan reads this batch cursor). Every
// windowed aggregate — count, sum and avg over numbers, min and max over
// numbers or strings — folds its values in one unboxed accumulator,
// numAcc: adds in arrival order, subtracts in eviction order, and the
// comparisons of seq.Value.Compare. Cache-Strategy-B fills the
// operator's own §3.4 cache, so its counters mean what they did when
// the operator ran record by record.
package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/cache"
	"repro/internal/seq"
)

// BatchScan implements the incremental sliding-window aggregate: one
// input scan over the positions the windows reach, each position
// absorbing what enters its window and evicting what leaves it.
func (a *AggSliding) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	return scanAgg(a.In, &a.Spec, a.schema, span.Intersect(a.OutSpan), ctx, true)
}

// BatchScan implements the running (cumulative) aggregate: one input
// scan from the input's start, folded without eviction.
func (a *AggCumulative) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	return scanAgg(a.In, &a.Spec, a.schema, span.Intersect(a.OutSpan), ctx, false)
}

// scanAgg opens the per-position walk of a windowed aggregate over span.
// A sliding window scans from the first window's start, a cumulative one
// from the input's start.
func scanAgg(in Plan, spec *algebra.AggSpec, schema *seq.Schema, span seq.Span, ctx *seq.BatchCtx, sliding bool) seq.BatchCursor {
	if span.IsEmpty() {
		return seq.EmptyBatchCursor()
	}
	if !span.Bounded() {
		return seq.ErrBatchCursor(fmt.Errorf("exec: unbounded scan of aggregate (span %v)", span))
	}
	w := spec.Window
	inSpan := in.Info().Span
	scanSpan := seq.Span{Start: inSpan.Start, End: seq.ClampPos(span.End + w.Hi)}
	if sliding {
		scanSpan.Start = seq.ClampPos(span.Start + w.Lo)
	}
	scanSpan = scanSpan.Intersect(inSpan)
	num, ok := newNumAcc(spec, in.Info().Schema, sliding, ctx.Intern)
	if !ok {
		return seq.ErrBatchCursor(fmt.Errorf("exec: no accumulator for %s over argument %d", spec.Func, spec.Arg))
	}
	if sliding {
		width, _ := w.Size()
		num.reserve(int(min(width+1, scanSpan.Len(), maxRingReserve)))
	}
	return &aggBatchCursor{
		arg:  spec.Arg,
		in:   newBatchRows(BatchScanOf(in, scanSpan, ctx)),
		ctx:  ctx,
		out:  seq.NewBatchFor(schema, ctx.SizeFor(span)),
		num:  num,
		p:    span.Start,
		end:  span.End,
		next: span.Start,
		lo:   w.Lo, hi: w.Hi, sliding: sliding,
	}
}

// numKind selects the accumulator specialization.
type numKind uint8

const (
	numFloat    numKind = iota // sum/avg over a TFloat argument
	numIntSum                  // sum over a TInt argument (integer result)
	numIntAvg                  // avg over a TInt argument (float accumulation)
	numCount                   // count (argument ignored)
	numFloatExt                // min/max over a TFloat argument
	numIntExt                  // min/max over a TInt argument
	numStrExt                  // min/max over a TString argument
)

// numAcc is the one accumulator of the windowed aggregates: raw column
// values flow straight into the running sums and (for sliding windows)
// an unboxed cache.Ring, or into an extreme, with no seq.Value boxing
// anywhere on the per-row path. Sums add in arrival order and subtract
// in eviction order. String extremes decode each handle through the
// run's intern table and compare the strings.
type numAcc struct {
	kind  numKind
	avg   bool // result is sum/count
	ring  bool // sliding window: retain values for eviction
	count int64
	sumI  int64
	sumF  float64
	winF  cache.Ring[float64]  // numFloat, numIntAvg
	winI  cache.Ring[int64]    // numIntSum
	winC  cache.Ring[struct{}] // numCount: positions only
	// Only the kind's extreme is made: three held by value would add
	// ~250 bytes to every sum and count cursor.
	extF *extreme[float64] // numFloatExt
	extI *extreme[int64]   // numIntExt
	extS *extreme[string]  // numStrExt
	in   *seq.Intern       // numStrExt: the run's handles
}

// extreme keeps the min or max of a window of raw values: a monotonic
// deque for a sliding window, the running extreme for a cumulative one.
// It compares as seq.Value.Compare does (v > w is Compare(v, w) > 0, NaN
// included, strings byte-wise) and replaces only on strictly better, so
// among equal extremes the earliest wins, as in AggFunc.Apply.
type extreme[T int64 | float64 | string] struct {
	max     bool
	sliding bool
	n       int64         // cumulative: values absorbed
	best    T             // cumulative: the extreme so far
	mono    cache.Ring[T] // sliding: the window's candidates, front best
}

func (e *extreme[T]) beats(v, w T) bool {
	if e.max {
		return v > w
	}
	return v < w
}

// absorbRun is numAcc.absorbRun for one numeric column. Its loop body is
// push written out, so the numeric loops make no call per row (the
// compiler does not inline push).
func (e *extreme[T]) absorbRun(b *seq.Batch, vals []T, i int, hi seq.Pos) (int, bool) {
	pv := b.Pos
	for ; i < len(pv); i++ {
		if pv[i] > hi {
			return i, true
		}
		if !b.Valid.Get(i) {
			continue
		}
		v := vals[i]
		if !e.sliding {
			if e.n == 0 || e.beats(v, e.best) {
				e.best = v
			}
			e.n++
			continue
		}
		for e.mono.Len() > 0 {
			if _, last := e.mono.Back(); !e.beats(v, last) {
				break
			}
			e.mono.PopBack()
		}
		e.mono.Push(pv[i], v)
	}
	return i, false
}

// push folds the value v at pos into the extreme: the string path, whose
// values are decoded one by one from intern handles.
func (e *extreme[T]) push(pos seq.Pos, v T) {
	if !e.sliding {
		if e.n == 0 || e.beats(v, e.best) {
			e.best = v
		}
		e.n++
		return
	}
	for e.mono.Len() > 0 {
		if _, last := e.mono.Back(); !e.beats(v, last) {
			break
		}
		e.mono.PopBack()
	}
	e.mono.Push(pos, v)
}

func (e *extreme[T]) evictBelow(p seq.Pos) {
	for {
		if _, ok := e.mono.PopBelow(p); !ok {
			return
		}
	}
}

// result returns the window's extreme; false when the window is empty.
func (e *extreme[T]) result() (T, bool) {
	if !e.sliding {
		return e.best, e.n > 0
	}
	if e.mono.Len() == 0 {
		return e.best, false
	}
	_, v := e.mono.Front()
	return v, true
}

// newNumAcc returns the accumulator of the spec, false when its argument
// is no column of inSchema a window aggregate can fold. in is the run's
// intern table, which string extremes decode and encode through.
func newNumAcc(spec *algebra.AggSpec, inSchema *seq.Schema, sliding bool, in *seq.Intern) (numAcc, bool) {
	if spec.Func == algebra.AggCount {
		return numAcc{kind: numCount, ring: sliding}, true
	}
	if spec.Arg < 0 || spec.Arg >= inSchema.NumFields() {
		return numAcc{}, false
	}
	t := inSchema.Field(spec.Arg).Type
	switch spec.Func {
	case algebra.AggSum, algebra.AggAvg:
		avg := spec.Func == algebra.AggAvg
		switch {
		case t == seq.TFloat:
			return numAcc{kind: numFloat, avg: avg, ring: sliding}, true
		case t == seq.TInt && avg:
			return numAcc{kind: numIntAvg, avg: true, ring: sliding}, true
		case t == seq.TInt:
			return numAcc{kind: numIntSum, ring: sliding}, true
		}
	case algebra.AggMin, algebra.AggMax:
		isMax := spec.Func == algebra.AggMax
		switch t {
		case seq.TFloat:
			return numAcc{kind: numFloatExt, extF: &extreme[float64]{max: isMax, sliding: sliding}}, true
		case seq.TInt:
			return numAcc{kind: numIntExt, extI: &extreme[int64]{max: isMax, sliding: sliding}}, true
		case seq.TString:
			return numAcc{kind: numStrExt, extS: &extreme[string]{max: isMax, sliding: sliding}, in: in}, true
		}
	}
	return numAcc{}, false
}

// maxRingReserve caps what reserve allocates up front: a wide window
// over a long, sparse scan holds far fewer values than either length,
// so past this many the ring grows by doubling as it fills.
const maxRingReserve = 1 << 16

// reserve sizes a sliding sum/avg/count window for n values. The ring
// holds at most one value per position of the scan, and of the window's
// width plus one (NextBatch absorbs a position's new values before it
// evicts the old), so sized for that it never grows, where doubling its
// way to a halo-sized window (6 144 positions) would allocate and copy
// twice that on every run. An extreme's deque is left to grow; it
// rarely holds many values.
func (a *numAcc) reserve(n int) {
	switch a.kind {
	case numFloat, numIntAvg:
		a.winF = cache.NewRing[float64](n)
	case numIntSum:
		a.winI = cache.NewRing[int64](n)
	case numCount:
		a.winC = cache.NewRing[struct{}](n)
	}
}

// absorbRun consumes rows i.. of b whose position is at most hi,
// folding their argument values into the accumulator. It returns the
// new row index and whether it stopped at a row beyond hi (as opposed
// to exhausting the batch).
func (a *numAcc) absorbRun(b *seq.Batch, col, i int, hi seq.Pos) (int, bool) {
	pv := b.Pos
	switch a.kind {
	case numFloatExt:
		return a.extF.absorbRun(b, b.Cols[col].F, i, hi)
	case numIntExt:
		return a.extI.absorbRun(b, b.Cols[col].I, i, hi)
	case numStrExt:
		h := b.Cols[col].H
		for ; i < len(pv); i++ {
			if pv[i] > hi {
				return i, true
			}
			if b.Valid.Get(i) {
				a.extS.push(pv[i], a.in.Str(h[i]))
			}
		}
		return i, false
	case numFloat:
		f := b.Cols[col].F
		for i < len(pv) {
			if pv[i] > hi {
				return i, true
			}
			if b.Valid.Get(i) {
				a.count++
				a.sumF += f[i]
				if a.ring {
					a.winF.Push(pv[i], f[i])
				}
			}
			i++
		}
	case numIntSum:
		iv := b.Cols[col].I
		for i < len(pv) {
			if pv[i] > hi {
				return i, true
			}
			if b.Valid.Get(i) {
				a.count++
				a.sumI += iv[i]
				if a.ring {
					a.winI.Push(pv[i], iv[i])
				}
			}
			i++
		}
	case numIntAvg:
		iv := b.Cols[col].I
		for i < len(pv) {
			if pv[i] > hi {
				return i, true
			}
			if b.Valid.Get(i) {
				x := float64(iv[i]) // Value.AsFloat's conversion, as AggFunc.Apply sums
				a.count++
				a.sumF += x
				if a.ring {
					a.winF.Push(pv[i], x)
				}
			}
			i++
		}
	default: // numCount
		for i < len(pv) {
			if pv[i] > hi {
				return i, true
			}
			if b.Valid.Get(i) {
				a.count++
				if a.ring {
					a.winC.Push(pv[i], struct{}{})
				}
			}
			i++
		}
	}
	return i, false
}

// evictBelow drops window entries with position < p, subtracting their
// values in eviction order.
func (a *numAcc) evictBelow(p seq.Pos) {
	switch a.kind {
	case numFloatExt:
		a.extF.evictBelow(p)
		return
	case numIntExt:
		a.extI.evictBelow(p)
		return
	case numStrExt:
		a.extS.evictBelow(p)
		return
	case numCount:
		for {
			if _, ok := a.winC.PopBelow(p); !ok {
				return
			}
			a.count--
		}
	case numFloat, numIntAvg:
		for {
			v, ok := a.winF.PopBelow(p)
			if !ok {
				return
			}
			a.sumF -= v
			a.count--
		}
	}
	for {
		v, ok := a.winI.PopBelow(p)
		if !ok {
			return
		}
		a.sumI -= v
		a.count--
	}
}

// emit appends the accumulator's current result for pos to the output
// batch, straight into the typed column — no row when the window is
// empty (§2.1: the aggregate of only Null records is Null).
func (a *numAcc) emit(out *seq.Batch, pos seq.Pos) {
	v := &out.Cols[0]
	switch a.kind {
	case numFloatExt:
		if x, ok := a.extF.result(); ok {
			out.AppendPos(pos)
			v.F = append(v.F, x)
		}
		return
	case numIntExt:
		if x, ok := a.extI.result(); ok {
			out.AppendPos(pos)
			v.I = append(v.I, x)
		}
		return
	case numStrExt:
		if x, ok := a.extS.result(); ok {
			out.AppendPos(pos)
			v.H = append(v.H, a.in.PutStr(x))
		}
		return
	}
	if a.count == 0 {
		return
	}
	out.AppendPos(pos)
	switch {
	case a.kind == numCount:
		v.I = append(v.I, a.count)
	case a.kind == numIntSum:
		v.I = append(v.I, a.sumI)
	case a.avg:
		v.F = append(v.F, a.sumF/float64(a.count))
	default:
		v.F = append(v.F, a.sumF)
	}
}

// aggBatchCursor drives the per-position walk of the windowed
// aggregates: absorb input rows up to pos+hi, evict below pos+lo (for
// sliding windows), emit the accumulator result.
type aggBatchCursor struct {
	arg     int // the aggregate's argument column
	in      *batchRows
	ctx     *seq.BatchCtx
	out     *seq.Batch
	num     numAcc
	p       seq.Pos // next position of the dense output walk
	end     seq.Pos
	next    seq.Pos // start of the next output batch's span
	lo, hi  int64
	sliding bool
	err     error
	done    bool
}

// NextBatch walks positions until the output batch holds ctx.Size rows.
// Input rows are absorbed in whole-batch runs (absorbRun) instead of one
// peek/take round trip per row.
func (c *aggBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.err != nil || c.done {
		return nil, false
	}
	out := c.out
	out.Reset()
	out.Span = seq.Span{Start: c.next, End: c.end}
	r := c.in
	a := &c.num
	for c.p <= c.end && out.Rows() < c.ctx.Size {
		pos := c.p
		c.p++
		hi := seq.ClampPos(pos + c.hi)
		for !r.done {
			if r.b == nil || r.i >= r.b.Rows() {
				b, ok := r.cur.NextBatch()
				if !ok {
					r.done = true
					if err := r.cur.Err(); err != nil {
						c.err = err
						return nil, false
					}
					break
				}
				r.b, r.i = b, 0
				continue
			}
			i, stopped := a.absorbRun(r.b, c.arg, r.i, hi)
			r.i = i
			if stopped {
				break
			}
		}
		if c.sliding {
			a.evictBelow(seq.ClampPos(pos + c.lo))
		}
		a.emit(out, pos)
	}
	if c.p > c.end {
		// The walk is complete: this final batch covers the tail.
		c.done = true
		return out, true
	}
	out.Span.End = c.p - 1
	c.next = c.p
	return out, true
}

func (c *aggBatchCursor) Err() error   { return c.err }
func (c *aggBatchCursor) Close() error { return c.in.close() }

// BatchScan implements Cache-Strategy-B value offsets: a single input
// scan feeds the |offset|-record FIFO cache, reset per scan; records are
// copied into the cache's own slots (PutRow). A backward offset scans
// from far enough back (historyStart) that the cache holds the right
// history at the first output position; a forward one keeps a lookahead
// of the next |offset| records.
func (v *ValueOffsetIncremental) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	span = span.Intersect(v.OutSpan)
	if span.IsEmpty() {
		return seq.EmptyBatchCursor()
	}
	if !span.Bounded() {
		return seq.ErrBatchCursor(fmt.Errorf("exec: unbounded scan of value offset (span %v)", span))
	}
	v.cache.Reset()
	inSpan := v.In.Info().Span
	schema := v.In.Info().Schema
	if v.Offset < 0 {
		end := span.End - 1
		if end > inSpan.End {
			end = inSpan.End
		}
		start, err := v.historyStart(span.Start, inSpan)
		if err != nil {
			return seq.ErrBatchCursor(err)
		}
		need := int(-v.Offset)
		return &voffsetBatchCursor{
			in:    newBatchRows(BatchScanOf(v.In, seq.Span{Start: start, End: end}, ctx)),
			ctx:   ctx,
			out:   seq.NewBatchFor(schema, ctx.SizeFor(span)),
			cache: v.cache,
			need:  need,
			p:     span.Start,
			end:   span.End,
			next:  span.Start,
		}
	}
	start := span.Start + 1
	if start < inSpan.Start {
		start = inSpan.Start
	}
	need := int(v.Offset)
	return &voffsetBatchCursor{
		in:      newBatchRows(BatchScanOf(v.In, seq.Span{Start: start, End: inSpan.End}, ctx)),
		ctx:     ctx,
		out:     seq.NewBatchFor(schema, ctx.SizeFor(span)),
		cache:   v.cache,
		need:    need,
		forward: true,
		p:       span.Start,
		end:     span.End,
		next:    span.Start,
	}
}

type voffsetBatchCursor struct {
	in      *batchRows
	ctx     *seq.BatchCtx
	out     *seq.Batch
	cache   *cache.FIFO
	need    int
	forward bool
	p       seq.Pos
	end     seq.Pos
	next    seq.Pos
	err     error
	done    bool
}

func (c *voffsetBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.err != nil || c.done {
		return nil, false
	}
	out := c.out
	out.Reset()
	out.Span = seq.Span{Start: c.next, End: c.end}
	in := c.ctx.Intern
	for c.p <= c.end && out.Rows() < c.ctx.Size {
		if !c.forward {
			// Absorb input records strictly before c.p; the ring keeps
			// the last `need` of them.
			var nextIn seq.Pos
			haveIn := false
			for {
				epos, ok, err := c.in.peek()
				if err != nil {
					c.err = err
					return nil, false
				}
				if !ok {
					break
				}
				if epos >= c.p {
					nextIn, haveIn = epos, true
					break
				}
				c.cache.PutRow(epos, c.in.b, c.in.i, in)
				c.in.take()
			}
			// The ring is stable for every position up to and including
			// the next input record (absorption is strictly-before), so
			// the whole run emits one shared record.
			runEnd := c.end
			if haveIn && nextIn < runEnd {
				runEnd = nextIn
			}
			cnt := int(runEnd - c.p + 1) //seqvet:ignore spanarith both ends lie inside the bounded scan span
			if space := c.ctx.Size - out.Rows(); cnt > space {
				cnt = space
			}
			if c.cache.Len() >= c.need {
				e, _ := c.cache.Oldest()
				if err := out.AppendRunRows(c.p, cnt, e.Rec, in); err != nil {
					c.err = err
					return nil, false
				}
			}
			c.p += seq.Pos(cnt)
			continue
		}
		// Forward: drop ring entries at or before c.p, then fill the
		// ring with records strictly after it.
		pos := c.p
		c.cache.EvictBelow(pos + 1)
		for c.cache.Len() < c.need {
			epos, ok, err := c.in.peek()
			if err != nil {
				c.err = err
				return nil, false
			}
			if !ok {
				break
			}
			if epos > pos {
				c.cache.PutRow(epos, c.in.b, c.in.i, in)
			}
			c.in.take()
		}
		if c.cache.Len() < c.need {
			// Input exhausted: no remaining position sees `need` records
			// ahead; the batch still spans them, holding no rows.
			c.p = c.end + 1 //seqvet:ignore spanarith bounded scan span
			break
		}
		// The newest ring entry — the record `need` ahead — is constant
		// until c.p reaches the oldest entry's position, where it is
		// evicted: emit that whole run at once.
		oldest, _ := c.cache.Oldest()
		newest, _ := c.cache.Newest()
		runEnd := oldest.Pos - 1
		if runEnd > c.end {
			runEnd = c.end
		}
		cnt := int(runEnd - pos + 1) //seqvet:ignore spanarith both ends lie inside the bounded scan span
		if space := c.ctx.Size - out.Rows(); cnt > space {
			cnt = space
		}
		if err := out.AppendRunRows(pos, cnt, newest.Rec, in); err != nil {
			c.err = err
			return nil, false
		}
		c.p += seq.Pos(cnt)
	}
	if c.p > c.end {
		c.done = true
		return out, true
	}
	out.Span.End = c.p - 1
	c.next = c.p
	return out, true
}

func (c *voffsetBatchCursor) Err() error   { return c.err }
func (c *voffsetBatchCursor) Close() error { return c.in.close() }
