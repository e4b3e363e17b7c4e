// Batch-mode windowed aggregates and value offsets. Each operator
// walks positions exactly as its scalar Scan does and keeps its window
// in the same place. The windowed aggregates share their accumulators
// with it (slidingAcc, runningAcc), so floating-point adds and
// subtracts happen in the same order and results are bit-identical
// across the planes. Every numeric aggregate — sum, avg, count, min and
// max — runs on the unboxed numAcc fast path, which keeps that order and
// those comparisons too; only min/max over strings stays boxed.
// Cache-Strategy-B fills the operator's own §3.4 cache, so its counters
// mean the same on both planes.
package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/cache"
	"repro/internal/seq"
)

// aggArgAt extracts the aggregate argument from row i of a batch.
func aggArgAt(spec *algebra.AggSpec, b *seq.Batch, i int, in *seq.Intern) seq.Value {
	if spec.Arg >= 0 {
		return b.Cols[spec.Arg].Value(i, in)
	}
	return seq.Int(1) // Count over whole records
}

// slidingAcc maintains an aggregate over a sliding window in O(1)
// amortized time per add/evict: sums by subtraction over a window of
// values, extrema by a monotonic deque alone, each held in a
// cache.Ring. AggSliding's scalar Scan drives it, and so does its
// BatchScan for string min/max. It is the ablation
// counterpart of AggCached's O(w)-per-output recomputation (see
// DESIGN.md experiment E4).
type slidingAcc struct {
	fn    algebra.AggFunc
	isInt bool
	count int64
	sumI  int64
	sumF  float64
	vals  cache.Ring[seq.Value]
	mono  cache.Ring[seq.Value]
}

func (a *slidingAcc) add(pos seq.Pos, v seq.Value) error {
	switch a.fn {
	case algebra.AggMin, algebra.AggMax:
		// The deque alone holds the window: it is empty exactly when
		// the window is. Only what v strictly beats is popped, so among
		// equal extremes the earliest stays in front, as AggFunc.Apply
		// keeps it.
		for a.mono.Len() > 0 {
			_, last := a.mono.Back()
			c, err := v.Compare(last)
			if err != nil {
				return err
			}
			if (a.fn == algebra.AggMin && c >= 0) || (a.fn == algebra.AggMax && c <= 0) {
				break
			}
			a.mono.PopBack()
		}
		a.mono.Push(pos, v)
		return nil
	case algebra.AggSum, algebra.AggAvg:
		if a.isInt && v.T == seq.TInt {
			a.sumI += v.AsInt()
		} else {
			a.sumF += v.AsFloat()
		}
	case algebra.AggCount:
		v = seq.Value{}
	}
	a.count++
	a.vals.Push(pos, v)
	return nil
}

func (a *slidingAcc) evictBelow(pos seq.Pos) {
	for {
		v, ok := a.vals.PopBelow(pos)
		if !ok {
			break
		}
		a.count--
		switch a.fn {
		case algebra.AggSum, algebra.AggAvg:
			if a.isInt && v.T == seq.TInt {
				a.sumI -= v.AsInt()
			} else {
				a.sumF -= v.AsFloat()
			}
		}
	}
	for {
		if _, ok := a.mono.PopBelow(pos); !ok {
			break
		}
	}
}

func (a *slidingAcc) result() (seq.Value, bool) {
	if a.fn == algebra.AggMin || a.fn == algebra.AggMax {
		if a.mono.Len() == 0 {
			return seq.Value{}, false
		}
		_, v := a.mono.Front()
		return v, true
	}
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
	}
	return seq.Value{}, false
}

// BatchScan implements the incremental sliding-window aggregate over
// batched input: the same single input scan and per-position
// absorb/evict sequence as the scalar Scan, emitting output rows in
// batches.
func (a *AggSliding) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	span = span.Intersect(a.OutSpan)
	if span.IsEmpty() {
		return seq.EmptyBatchCursor()
	}
	if !span.Bounded() {
		return seq.ErrBatchCursor(fmt.Errorf("exec: unbounded scan of aggregate (span %v)", span))
	}
	w := a.Spec.Window
	inSpan := a.In.Info().Span
	scanSpan := seq.Span{
		Start: seq.ClampPos(span.Start + w.Lo),
		End:   seq.ClampPos(span.End + w.Hi),
	}.Intersect(inSpan)
	isInt := a.schema.Field(0).Type == seq.TInt && a.Spec.Func == algebra.AggSum
	cur := &aggBatchCursor{
		spec: &a.Spec,
		in:   newBatchRows(BatchScanOf(a.In, scanSpan, ctx)),
		ctx:  ctx,
		out:  seq.NewBatchFor(a.schema, ctx.SizeFor(span)),
		p:    span.Start,
		end:  span.End,
		next: span.Start,
		lo:   w.Lo, hi: w.Hi, sliding: true,
	}
	if cur.num = newNumAcc(&a.Spec, a.In.Info().Schema, true); cur.num == nil {
		cur.acc = &slidingAcc{fn: a.Spec.Func, isInt: isInt}
	} else {
		width, _ := w.Size()
		cur.num.reserve(int(min(width+1, scanSpan.Len(), maxRingReserve)))
	}
	return cur
}

// BatchScan implements the running (cumulative) aggregate over batched
// input with the scalar Scan's runningAcc, so the arithmetic order is
// the same.
func (a *AggCumulative) BatchScan(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	span = span.Intersect(a.OutSpan)
	if span.IsEmpty() {
		return seq.EmptyBatchCursor()
	}
	if !span.Bounded() {
		return seq.ErrBatchCursor(fmt.Errorf("exec: unbounded scan of aggregate (span %v)", span))
	}
	inSpan := a.In.Info().Span
	scanSpan := seq.Span{Start: inSpan.Start, End: seq.ClampPos(span.End + a.Spec.Window.Hi)}.Intersect(inSpan)
	isInt := a.schema.Field(0).Type == seq.TInt && a.Spec.Func == algebra.AggSum
	cur := &aggBatchCursor{
		spec: &a.Spec,
		in:   newBatchRows(BatchScanOf(a.In, scanSpan, ctx)),
		ctx:  ctx,
		out:  seq.NewBatchFor(a.schema, ctx.SizeFor(span)),
		p:    span.Start,
		end:  span.End,
		next: span.Start,
		hi:   a.Spec.Window.Hi,
	}
	if cur.num = newNumAcc(&a.Spec, a.In.Info().Schema, false); cur.num == nil {
		cur.acc = &cumulativeAcc{runningAcc: *newRunningAcc(a.Spec.Func, isInt)}
	}
	return cur
}

// numKind selects the unboxed accumulator specialization.
type numKind uint8

const (
	numFloat    numKind = iota // sum/avg over a TFloat argument
	numIntSum                  // sum over a TInt argument (integer result)
	numIntAvg                  // avg over a TInt argument (float accumulation)
	numCount                   // count (argument ignored)
	numFloatExt                // min/max over a TFloat argument
	numIntExt                  // min/max over a TInt argument
)

// numAcc is the unboxed fast path of the windowed numeric aggregates:
// raw column values flow straight into the running sums and (for
// sliding windows) an unboxed cache.Ring, or into an extreme, with no
// seq.Value boxing anywhere on the per-row path. The arithmetic — adds
// in arrival order, subtracts in eviction order — and the comparisons
// are exactly the boxed accumulators', so results stay bit-identical to
// the scalar interpreter. Only min/max over strings stays on the
// generic boxed accumulator.
type numAcc struct {
	kind  numKind
	avg   bool // result is sum/count
	ring  bool // sliding window: retain values for eviction
	count int64
	sumI  int64
	sumF  float64
	winF  cache.Ring[float64] // numFloat, numIntAvg
	winI  cache.Ring[int64]   // numIntSum, numCount (which pushes 0)
	extF  extreme[float64]    // numFloatExt
	extI  extreme[int64]      // numIntExt
}

// extreme keeps the min or max of a window of raw values: a monotonic
// deque for a sliding window, the running extreme for a cumulative one.
// It compares as seq.Value.Compare does (v > w is Compare(v, w) > 0, NaN
// included) and replaces only on strictly better, so among equal
// extremes the earliest wins, as in slidingAcc, runningAcc and
// AggFunc.Apply.
type extreme[T int64 | float64] struct {
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

// absorbRun is numAcc.absorbRun for one typed column.
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

// newNumAcc returns the unboxed accumulator when the spec qualifies,
// nil otherwise.
func newNumAcc(spec *algebra.AggSpec, inSchema *seq.Schema, sliding bool) *numAcc {
	if spec.Func == algebra.AggCount {
		return &numAcc{kind: numCount, ring: sliding}
	}
	if spec.Arg < 0 || spec.Arg >= inSchema.NumFields() {
		return nil
	}
	t := inSchema.Field(spec.Arg).Type
	switch spec.Func {
	case algebra.AggSum, algebra.AggAvg:
		avg := spec.Func == algebra.AggAvg
		switch {
		case t == seq.TFloat:
			return &numAcc{kind: numFloat, avg: avg, ring: sliding}
		case t == seq.TInt && avg:
			return &numAcc{kind: numIntAvg, avg: true, ring: sliding}
		case t == seq.TInt:
			return &numAcc{kind: numIntSum, ring: sliding}
		}
	case algebra.AggMin, algebra.AggMax:
		isMax := spec.Func == algebra.AggMax
		switch t {
		case seq.TFloat:
			return &numAcc{kind: numFloatExt, extF: extreme[float64]{max: isMax, sliding: sliding}}
		case seq.TInt:
			return &numAcc{kind: numIntExt, extI: extreme[int64]{max: isMax, sliding: sliding}}
		}
	}
	return nil
}

// maxRingReserve caps what reserve allocates up front: a wide window
// over a long, sparse scan holds far fewer values than either length,
// so past this many the ring grows by doubling as it fills.
const maxRingReserve = 1 << 16

// reserve sizes a sliding sum/avg/count window for n values. The ring
// holds at most one value per position of the scan, and of the window's
// width plus one (numLoop absorbs a position's new values before it
// evicts the old), so sized for that it never grows, where doubling its
// way to a halo-sized window (6 144 positions) would allocate and copy
// twice that on every run. An extreme's deque is left to grow; it
// rarely holds many values.
func (a *numAcc) reserve(n int) {
	switch a.kind {
	case numFloat, numIntAvg:
		a.winF = cache.NewRing[float64](n)
	case numIntSum, numCount:
		a.winI = cache.NewRing[int64](n)
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
				x := float64(iv[i]) // the scalar path's Value.AsFloat conversion
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
					a.winI.Push(pv[i], 0)
				}
			}
			i++
		}
	}
	return i, false
}

// evictBelow drops window entries with position < p, subtracting their
// values in eviction order exactly as the boxed accumulator does.
func (a *numAcc) evictBelow(p seq.Pos) {
	switch a.kind {
	case numFloatExt:
		a.extF.evictBelow(p)
		return
	case numIntExt:
		a.extI.evictBelow(p)
		return
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
// empty, matching the scalar interpreter.
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

// windowAcc is what aggBatchCursor needs from an accumulator.
type windowAcc interface {
	add(pos seq.Pos, v seq.Value) error
	evictBelow(pos seq.Pos)
	result() (seq.Value, bool)
}

// cumulativeAcc adapts runningAcc to the windowAcc interface (positions
// are irrelevant to an add-only accumulator).
type cumulativeAcc struct {
	runningAcc
}

func (a *cumulativeAcc) add(_ seq.Pos, v seq.Value) error { return a.runningAcc.add(v) }
func (a *cumulativeAcc) evictBelow(seq.Pos)               {}

// aggBatchCursor drives the shared per-position loop of the windowed
// aggregates: absorb input rows up to pos+hi, evict below pos+lo (for
// sliding windows), emit the accumulator result.
type aggBatchCursor struct {
	spec    *algebra.AggSpec
	in      *batchRows
	ctx     *seq.BatchCtx
	out     *seq.Batch
	acc     windowAcc // generic boxed accumulator (string min/max)
	num     *numAcc   // unboxed fast path (every numeric aggregate)
	p       seq.Pos   // next position of the dense output walk
	end     seq.Pos
	next    seq.Pos // start of the next output batch's span
	lo, hi  int64
	sliding bool
	err     error
	done    bool
}

func (c *aggBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.err != nil || c.done {
		return nil, false
	}
	out := c.out
	out.Reset()
	out.Span = seq.Span{Start: c.next, End: c.end}
	var ok bool
	if c.num != nil {
		ok = c.numLoop(out)
	} else {
		ok = c.genericLoop(out)
	}
	if !ok {
		return nil, false
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

// numLoop drives the per-position walk on the unboxed accumulator:
// input rows are absorbed in whole-batch runs (absorbRun) instead of
// one peek/take round trip per row.
func (c *aggBatchCursor) numLoop(out *seq.Batch) bool {
	r := c.in
	a := c.num
	arg := c.spec.Arg
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
						return false
					}
					break
				}
				r.b, r.i = b, 0
				continue
			}
			i, stopped := a.absorbRun(r.b, arg, r.i, hi)
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
	return true
}

// genericLoop is the boxed per-row walk used by the aggregates the fast
// path does not cover: min/max over strings.
func (c *aggBatchCursor) genericLoop(out *seq.Batch) bool {
	in := c.ctx.Intern
	for c.p <= c.end && out.Rows() < c.ctx.Size {
		pos := c.p
		c.p++
		hi := seq.ClampPos(pos + c.hi)
		for {
			epos, ok, err := c.in.peek()
			if err != nil {
				c.err = err
				return false
			}
			if !ok || epos > hi {
				break
			}
			v := aggArgAt(c.spec, c.in.b, c.in.i, in)
			if err := c.acc.add(epos, v); err != nil {
				c.err = err
				return false
			}
			c.in.take()
		}
		if c.sliding {
			c.acc.evictBelow(seq.ClampPos(pos + c.lo))
		}
		if v, ok := c.acc.result(); ok {
			out.AppendPos(pos)
			if err := out.Cols[0].AppendValue(v, in); err != nil {
				c.err = err
				return false
			}
		}
	}
	return true
}

func (c *aggBatchCursor) Err() error   { return c.err }
func (c *aggBatchCursor) Close() error { return c.in.close() }

// BatchScan implements Cache-Strategy-B value offsets over batched
// input: the same single input scan, historyStart shortcut and
// |offset|-record FIFO cache as the scalar Scan, reset per scan the
// same way; records are copied into the cache's own slots (PutRow).
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
