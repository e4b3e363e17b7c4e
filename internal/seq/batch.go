package seq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// DefaultBatchSize is the number of rows at which a batch-producing
// cursor cuts a batch. ~1k rows keeps a batch's column vectors inside the
// L1/L2 caches while amortizing per-batch overheads to noise.
const DefaultBatchSize = 1024

// Bitmap is a row-validity bitmap: bit i is set when row i of a batch is
// a live (non-Null) row. The model's Null semantics are record-level —
// a position either maps to a whole record or to the Null record — so a
// batch carries one validity bitmap for the row, not one per column.
type Bitmap []uint64

// bitmapWords returns the number of words needed for n bits.
func bitmapWords(n int) int { return (n + 63) / 64 }

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// setRange sets the n bits starting at lo, word-wise.
func (b Bitmap) setRange(lo, n int) {
	if n <= 0 {
		return
	}
	hi := lo + n - 1 // inclusive
	w0, w1 := lo>>6, hi>>6
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - (uint(hi) & 63))
	if w0 == w1 {
		b[w0] |= first & last
		return
	}
	b[w0] |= first
	for w := w0 + 1; w < w1; w++ {
		b[w] = ^uint64(0)
	}
	b[w1] |= last
}

// NextSet returns the smallest index >= from (and < n) whose bit is
// set, or n when no such bit exists. It scans word-wise, so skipping a
// long run of cleared bits (e.g. the filtered-out rows of a selective
// predicate's output batch) costs one mask test per 64 rows instead of
// one Get call per row.
func (b Bitmap) NextSet(from, n int) int {
	if from >= n {
		return n
	}
	w := from >> 6
	word := b[w] >> (uint(from) & 63)
	if word != 0 {
		if i := from + bits.TrailingZeros64(word); i < n {
			return i
		}
		return n
	}
	for w++; w < bitmapWords(n); w++ {
		if b[w] != 0 {
			if i := w<<6 + bits.TrailingZeros64(b[w]); i < n {
				return i
			}
			return n
		}
	}
	return n
}

// Count returns the number of set bits among the first n.
func (b Bitmap) Count(n int) int {
	full := n >> 6
	c := 0
	for i := 0; i < full; i++ {
		c += bits.OnesCount64(b[i])
	}
	if rem := uint(n) & 63; rem != 0 {
		c += bits.OnesCount64(b[full] & (1<<rem - 1))
	}
	return c
}

// Vec is one column of a batch: a typed value vector. Exactly one of the
// payload slices is in use, selected by T. String columns store intern
// handles (see Intern) instead of string headers, so repeated values
// occupy one table slot however many rows carry them.
type Vec struct {
	T Type
	I []int64   // TInt
	F []float64 // TFloat
	H []uint32  // TString: handles into the run's Intern table
	B []bool    // TBool
}

// Len returns the number of values in the vector.
func (v *Vec) Len() int {
	switch v.T {
	case TInt:
		return len(v.I)
	case TFloat:
		return len(v.F)
	case TString:
		return len(v.H)
	default:
		return len(v.B)
	}
}

// Reset truncates the vector to zero length, keeping capacity.
func (v *Vec) Reset() {
	v.I = v.I[:0]
	v.F = v.F[:0]
	v.H = v.H[:0]
	v.B = v.B[:0]
}

// AppendFrom appends element i of src, which must have the same type.
// Intern handles copy verbatim: both vectors belong to one run context.
func (v *Vec) AppendFrom(src *Vec, i int) {
	switch v.T {
	case TInt:
		v.I = append(v.I, src.I[i])
	case TFloat:
		v.F = append(v.F, src.F[i])
	case TString:
		v.H = append(v.H, src.H[i])
	default:
		v.B = append(v.B, src.B[i])
	}
}

// AppendValue appends one value; the value's type must match v.T.
func (v *Vec) AppendValue(val Value, in *Intern) error {
	if val.T != v.T {
		return fmt.Errorf("seq: batch column type mismatch: %s value in %s column", val.T, v.T)
	}
	switch v.T {
	case TInt:
		v.I = append(v.I, val.i)
	case TFloat:
		v.F = append(v.F, val.f)
	case TString:
		v.H = append(v.H, in.PutStr(val.s))
	default:
		v.B = append(v.B, val.b)
	}
	return nil
}

// Value boxes the i-th element back into a Value.
func (v *Vec) Value(i int, in *Intern) Value {
	switch v.T {
	case TInt:
		return Value{T: TInt, i: v.I[i]}
	case TFloat:
		return Value{T: TFloat, f: v.F[i]}
	case TString:
		return Value{T: TString, s: in.Str(v.H[i])}
	default:
		return Value{T: TBool, b: v.B[i]}
	}
}

// Batch is a columnar slice of a sequence: up to a few thousand
// positions' worth of records decomposed into per-column vectors, the
// unit of work of the vectorized execution path. Rows are stored in
// strictly ascending position order. Span is the contiguous range of
// positions this batch accounts for: consecutive batches of one cursor
// tile their scan's range without gap or overlap (the planlint
// batch/span invariant), so a consumer knows every position in Span not
// listed in Pos — or listed with its validity bit clear — maps to the
// Null record.
//
// A batch returned by a BatchCursor is owned by the caller until its
// next NextBatch or Close call: the caller may mutate it in place
// (selection clears validity bits rather than copying survivors), and
// the producer may recycle it afterwards. Consumers must never retain a
// batch, or slices into one, across NextBatch calls.
type Batch struct {
	Span   Span
	Pos    []Pos
	Valid  Bitmap
	Cols   []Vec
	schema *Schema
	hasStr bool
	idx    []int32 // scratch: valid-row indexes, reused by AppendEntries
}

// NewBatchFor allocates an empty batch shaped for the schema, with room
// for capacity rows. A capacity of 0 allocates no row storage at all:
// the vectors grow on first use, and a batch whose rows are aliased
// from another (AliasRowsOf) never needs its own.
func NewBatchFor(schema *Schema, capacity int) *Batch {
	b := &Batch{
		Span:   EmptySpan,
		Pos:    make([]Pos, 0, capacity),
		Valid:  make(Bitmap, bitmapWords(capacity)),
		Cols:   make([]Vec, schema.NumFields()),
		schema: schema,
	}
	for i := range b.Cols {
		t := schema.Field(i).Type
		b.Cols[i].T = t
		switch t {
		case TInt:
			b.Cols[i].I = make([]int64, 0, capacity)
		case TFloat:
			b.Cols[i].F = make([]float64, 0, capacity)
		case TString:
			b.Cols[i].H = make([]uint32, 0, capacity)
			b.hasStr = true
		default:
			b.Cols[i].B = make([]bool, 0, capacity)
		}
	}
	return b
}

// Schema returns the record type of the batch's rows.
func (b *Batch) Schema() *Schema { return b.schema }

// Rows returns the number of rows (valid or not) in the batch.
func (b *Batch) Rows() int { return len(b.Pos) }

// ValidRows returns the number of rows whose validity bit is set.
func (b *Batch) ValidRows() int { return b.Valid.Count(len(b.Pos)) }

// Reset empties the batch for refilling.
func (b *Batch) Reset() {
	b.Span = EmptySpan
	b.Pos = b.Pos[:0]
	for i := range b.Valid {
		b.Valid[i] = 0
	}
	for i := range b.Cols {
		b.Cols[i].Reset()
	}
}

// AliasRowsOf makes b share src's row identity — span, position vector
// and validity bitmap — without touching b's columns. Projection-style
// operators use it to emit a batch with the same rows but different
// columns; per the ownership contract the alias is valid only until the
// producer of src recycles it.
func (b *Batch) AliasRowsOf(src *Batch) {
	b.Span = src.Span
	b.Pos = src.Pos
	b.Valid = src.Valid
}

// growValid ensures the validity bitmap covers row index i.
func (b *Batch) growValid(i int) {
	for len(b.Valid)*64 <= i {
		b.Valid = append(b.Valid, 0)
	}
}

// AppendRow appends a non-Null record as a valid row. Positions must
// arrive in strictly ascending order; the record must conform to the
// batch schema (checked, so a malformed upstream record surfaces as an
// error exactly as the scalar materialization path reports it).
func (b *Batch) AppendRow(pos Pos, rec Record, in *Intern) error {
	if len(rec) != len(b.Cols) {
		return fmt.Errorf("seq: record arity %d does not conform to %v", len(rec), b.schema)
	}
	if n := len(b.Pos); n > 0 && b.Pos[n-1] >= pos {
		return fmt.Errorf("seq: batch positions out of order: %d after %d", pos, b.Pos[n-1])
	}
	for i := range b.Cols {
		if err := b.Cols[i].AppendValue(rec[i], in); err != nil {
			return err
		}
	}
	i := len(b.Pos)
	b.Pos = append(b.Pos, pos)
	b.growValid(i)
	b.Valid.Set(i)
	return nil
}

// AppendEntryRows bulk-appends a window of (position, record) entries as
// valid rows — the column-major equivalent of calling AppendRow per
// entry, with the same ordering, arity and type checks, but with the
// per-value type dispatch hoisted out of the row loop. This is the fill
// path of the native storage batch cursors.
func (b *Batch) AppendEntryRows(win []Entry, in *Intern) error {
	if len(win) == 0 {
		return nil
	}
	width := len(b.Cols)
	last, have := Pos(0), false
	if n := len(b.Pos); n > 0 {
		last, have = b.Pos[n-1], true
	}
	base := len(b.Pos)
	b.Pos = extend(b.Pos, len(win))
	posSeg := b.Pos[base:]
	for k := range win {
		if have && win[k].Pos <= last {
			b.Pos = b.Pos[:base]
			return fmt.Errorf("seq: batch positions out of order: %d after %d", win[k].Pos, last)
		}
		last, have = win[k].Pos, true
		if len(win[k].Rec) != width {
			b.Pos = b.Pos[:base]
			return fmt.Errorf("seq: record arity %d does not conform to %v", len(win[k].Rec), b.schema)
		}
		posSeg[k] = win[k].Pos
	}
	b.growValid(len(b.Pos) - 1)
	b.Valid.setRange(base, len(win))
	for j := range b.Cols {
		v := &b.Cols[j]
		switch v.T {
		case TInt:
			seg := extendTail(&v.I, len(win))
			for k := range win {
				c := &win[k].Rec[j]
				if c.T != TInt {
					return fmt.Errorf("seq: batch column type mismatch: %s value in %s column", c.T, v.T)
				}
				seg[k] = c.i
			}
		case TFloat:
			seg := extendTail(&v.F, len(win))
			for k := range win {
				c := &win[k].Rec[j]
				if c.T != TFloat {
					return fmt.Errorf("seq: batch column type mismatch: %s value in %s column", c.T, v.T)
				}
				seg[k] = c.f
			}
		case TString:
			seg := extendTail(&v.H, len(win))
			for k := range win {
				c := &win[k].Rec[j]
				if c.T != TString {
					return fmt.Errorf("seq: batch column type mismatch: %s value in %s column", c.T, v.T)
				}
				seg[k] = in.PutStr(c.s)
			}
		default:
			seg := extendTail(&v.B, len(win))
			for k := range win {
				c := &win[k].Rec[j]
				if c.T != TBool {
					return fmt.Errorf("seq: batch column type mismatch: %s value in %s column", c.T, v.T)
				}
				seg[k] = c.b
			}
		}
	}
	return nil
}

// AppendRunRows appends cnt valid rows at the consecutive positions
// pos, pos+1, ..., pos+cnt-1, every one carrying the same record — the
// shape value offsets emit, where the output is piecewise-constant
// between input records. The record's values are type-checked (and a
// string interned) once per run rather than once per row.
func (b *Batch) AppendRunRows(pos Pos, cnt int, rec Record, in *Intern) error {
	if cnt <= 0 {
		return nil
	}
	if len(rec) != len(b.Cols) {
		return fmt.Errorf("seq: record arity %d does not conform to %v", len(rec), b.schema)
	}
	if n := len(b.Pos); n > 0 && b.Pos[n-1] >= pos {
		return fmt.Errorf("seq: batch positions out of order: %d after %d", pos, b.Pos[n-1])
	}
	base := len(b.Pos)
	b.Pos = extend(b.Pos, cnt)
	for k, seg := 0, b.Pos[base:]; k < len(seg); k++ {
		seg[k] = pos + Pos(k)
	}
	b.growValid(len(b.Pos) - 1)
	b.Valid.setRange(base, cnt)
	for j := range b.Cols {
		v := &b.Cols[j]
		c := rec[j]
		if c.T != v.T {
			return fmt.Errorf("seq: batch column type mismatch: %s value in %s column", c.T, v.T)
		}
		switch v.T {
		case TInt:
			seg := extendTail(&v.I, cnt)
			for k := range seg {
				seg[k] = c.i
			}
		case TFloat:
			seg := extendTail(&v.F, cnt)
			for k := range seg {
				seg[k] = c.f
			}
		case TString:
			h := in.PutStr(c.s)
			seg := extendTail(&v.H, cnt)
			for k := range seg {
				seg[k] = h
			}
		default:
			seg := extendTail(&v.B, cnt)
			for k := range seg {
				seg[k] = c.b
			}
		}
	}
	return nil
}

// extend grows s by n elements in place when capacity allows (the
// steady state: batch vectors are allocated at the capacity their span
// allows), reallocating otherwise, and returns the extended slice.
func extend[T any](s []T, n int) []T {
	l := len(s)
	if cap(s)-l >= n {
		return s[:l+n]
	}
	out := make([]T, l+n, 2*l+n)
	copy(out, s)
	return out
}

// extendTail extends *s by n elements and returns the new tail.
func extendTail[T any](s *[]T, n int) []T {
	l := len(*s)
	*s = extend(*s, n)
	return (*s)[l:]
}

// AppendPos appends a position as a valid row, leaving the columns to
// the caller (who appends one value per column via AppendFrom or
// AppendValue). Returns the new row's index.
func (b *Batch) AppendPos(pos Pos) int {
	i := len(b.Pos)
	b.Pos = append(b.Pos, pos)
	b.growValid(i)
	b.Valid.Set(i)
	return i
}

// Row materializes row i as a freshly allocated Record (nil when the
// row's validity bit is clear). Hot paths use AppendEntries instead.
func (b *Batch) Row(i int, in *Intern) Record {
	if !b.Valid.Get(i) {
		return nil
	}
	out := make(Record, len(b.Cols))
	for j := range b.Cols {
		out[j] = b.Cols[j].Value(i, in)
	}
	return out
}

// RowInto fills a caller-owned scratch record with row i's values and
// returns it, avoiding the per-row allocation of Row. The scratch must
// have the batch's arity; the returned record is only valid until the
// next RowInto call with the same scratch.
func (b *Batch) RowInto(i int, scratch Record, in *Intern) Record {
	for j := range b.Cols {
		scratch[j] = b.Cols[j].Value(i, in)
	}
	return scratch
}

// AppendEntries converts the batch's valid rows to (position, record)
// entries appended onto dst. Records are sliced out of one slab
// allocation per batch; when the schema carries string columns the rows
// are additionally deduplicated through the intern table, so repeated
// records share one backing array across the whole run.
func (b *Batch) AppendEntries(dst []Entry, in *Intern) []Entry {
	n := len(b.Pos)
	valid := b.ValidRows()
	if valid == 0 {
		return dst
	}
	width := len(b.Cols)
	if width == 0 {
		// Zero-column schemas cannot occur (NewSchema requires names),
		// but guard the slab math anyway.
		return dst
	}
	rows := b.idx[:0]
	for i := 0; i < n; i++ {
		if b.Valid.Get(i) {
			rows = append(rows, int32(i))
		}
	}
	b.idx = rows
	if b.hasStr && in != nil {
		// Dedup through the intern table: a row is materialized (into
		// the run arena) only when no identical record was seen before.
		for _, i := range rows {
			dst = append(dst, Entry{Pos: b.Pos[i], Rec: in.internRow(b, int(i))})
		}
		return dst
	}
	slab := make([]Value, valid*width)
	for j := range b.Cols {
		v := &b.Cols[j]
		switch v.T {
		case TInt:
			for k, i := range rows {
				slab[k*width+j] = Value{T: TInt, i: v.I[i]}
			}
		case TFloat:
			for k, i := range rows {
				slab[k*width+j] = Value{T: TFloat, f: v.F[i]}
			}
		case TString:
			for k, i := range rows {
				slab[k*width+j] = Value{T: TString, s: in.Str(v.H[i])}
			}
		default:
			for k, i := range rows {
				slab[k*width+j] = Value{T: TBool, b: v.B[i]}
			}
		}
	}
	for k, i := range rows {
		rec := slab[k*width : (k+1)*width : (k+1)*width]
		dst = append(dst, Entry{Pos: b.Pos[i], Rec: Record(rec)})
	}
	return dst
}

// Intern is a per-run value intern table: strings are mapped to dense
// uint32 handles (so batches carry 4-byte handles instead of 16-byte
// string headers, and equality is integer equality), and materialized
// records with string attributes are deduplicated so repeated rows share
// one backing array. The table is private to one evaluation — a
// parallel run forks one per worker, exactly like operator caches — so
// no synchronization is needed and handles never cross workers.
type Intern struct {
	strIDs map[string]uint32
	strs   []string
	recs   recTable
	key    []byte

	vals     []Value // current arena chunk for materialized records
	valsUsed int

	strHits, strMisses int64
	recHits, recMisses int64
}

// takeValues carves an n-Value slice out of the run-level record arena,
// backing the canonical records of the intern table: those live as long
// as the run either way, and carving them from doubling chunks replaces
// one allocation per distinct record with a handful per run.
func (in *Intern) takeValues(n int) []Value {
	if in == nil {
		return make([]Value, n)
	}
	if len(in.vals)-in.valsUsed < n {
		size := 2 * len(in.vals)
		const minChunk = 256
		if size < minChunk {
			size = minChunk
		}
		if size < n {
			size = n
		}
		in.vals = make([]Value, size)
		in.valsUsed = 0
	}
	s := in.vals[in.valsUsed : in.valsUsed+n : in.valsUsed+n]
	in.valsUsed += n
	return s
}

// NewIntern returns an empty intern table.
func NewIntern() *Intern {
	return &Intern{strIDs: make(map[string]uint32)}
}

// recTable is an open-addressing hash table from record keys (byte
// strings) to canonical records. Keys live in one append-only arena, so
// an insert costs no allocation beyond the amortized arena and slot
// growth — unlike a map[string]Record, whose every insert copies its key
// into a fresh string allocation.
type recTable struct {
	slots []recSlot
	n     int
	arena []byte
}

type recSlot struct {
	hash uint64
	off  uint32
	len  uint32
	rec  Record // nil marks an empty slot
}

func recHash(key []byte) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// lookup returns the canonical record for key, or nil.
func (t *recTable) lookup(key []byte, hash uint64) Record {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.rec == nil {
			return nil
		}
		if s.hash == hash && bytes.Equal(t.arena[s.off:s.off+s.len], key) {
			return s.rec
		}
	}
}

// insert adds key → rec; the key must not already be present.
func (t *recTable) insert(key []byte, hash uint64, rec Record) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	off := uint32(len(t.arena))
	t.arena = append(t.arena, key...)
	t.place(recSlot{hash: hash, off: off, len: uint32(len(key)), rec: rec})
	t.n++
}

func (t *recTable) place(s recSlot) {
	mask := uint64(len(t.slots) - 1)
	for i := s.hash & mask; ; i = (i + 1) & mask {
		if t.slots[i].rec == nil {
			t.slots[i] = s
			return
		}
	}
}

func (t *recTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 64
	}
	t.slots = make([]recSlot, size)
	for i := range old {
		if old[i].rec != nil {
			t.place(old[i])
		}
	}
}

// PutStr interns a string, returning its handle.
func (in *Intern) PutStr(s string) uint32 {
	if id, ok := in.strIDs[s]; ok {
		in.strHits++
		return id
	}
	in.strMisses++
	id := uint32(len(in.strs))
	in.strs = append(in.strs, s)
	in.strIDs[s] = id
	return id
}

// Str resolves a handle back to its string.
func (in *Intern) Str(id uint32) string { return in.strs[id] }

// Strings returns the number of distinct interned strings.
func (in *Intern) Strings() int { return len(in.strs) }

// internRow deduplicates one batch row: if an identical record was seen
// before, the canonical copy is returned; otherwise the row is boxed
// into the run arena and becomes the canonical copy. The lookup key is
// built from the columns' raw payloads — string columns contribute
// their handles, which are canonical within this table — so no string
// hashing happens per row, and no record is materialized for a hit.
func (in *Intern) internRow(b *Batch, row int) Record {
	key := in.key[:0]
	var buf [8]byte
	for j := range b.Cols {
		v := &b.Cols[j]
		key = append(key, byte(v.T))
		switch v.T {
		case TInt:
			binary.LittleEndian.PutUint64(buf[:], uint64(v.I[row]))
			key = append(key, buf[:]...)
		case TFloat:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F[row]))
			key = append(key, buf[:]...)
		case TString:
			binary.LittleEndian.PutUint32(buf[:4], v.H[row])
			key = append(key, buf[:4]...)
		default:
			if v.B[row] {
				key = append(key, 1)
			} else {
				key = append(key, 0)
			}
		}
	}
	in.key = key
	h := recHash(key)
	if r := in.recs.lookup(key, h); r != nil {
		in.recHits++
		return r
	}
	in.recMisses++
	fresh := Record(in.takeValues(len(b.Cols)))
	for j := range b.Cols {
		fresh[j] = b.Cols[j].Value(row, in)
	}
	in.recs.insert(key, h, fresh)
	return fresh
}

// Stats reports the intern table's accumulated hit/miss counters.
func (in *Intern) Stats() InternStats {
	return InternStats{
		StrHits: in.strHits, StrMisses: in.strMisses,
		RecHits: in.recHits, RecMisses: in.recMisses,
	}
}

// InternStats are the hit/miss counters of an Intern table.
type InternStats struct {
	StrHits, StrMisses int64
	RecHits, RecMisses int64
}

// Add returns the element-wise sum.
func (s InternStats) Add(o InternStats) InternStats {
	return InternStats{
		StrHits: s.StrHits + o.StrHits, StrMisses: s.StrMisses + o.StrMisses,
		RecHits: s.RecHits + o.RecHits, RecMisses: s.RecMisses + o.RecMisses,
	}
}

// BatchCtx is the per-run state of a batch-mode evaluation: the target
// batch size, the run's intern table, and the run-level batch counters.
// A parallel run forks one per worker (fresh intern table, private
// counters) and folds the counters back when the worker completes.
type BatchCtx struct {
	// Size is the row cut: a producer ends a batch once it holds Size
	// rows. It is not the allocation; a batch is allocated for
	// SizeFor(span) rows, and no more.
	Size int
	// Intern is the run's value intern table.
	Intern *Intern
	// Batches and Rows count the batches and valid rows the run's
	// root collector consumed.
	Batches int64
	Rows    int64
}

// NewBatchCtx returns a fresh context with the default batch size.
func NewBatchCtx() *BatchCtx {
	return &BatchCtx{Size: DefaultBatchSize, Intern: NewIntern()}
}

// SizeFor returns the row capacity of a batch covering span:
// min(Size, span length), at least 1. A batch never holds more rows
// than its span has positions, so a short scan allocates for the rows
// it can emit rather than for a full batch.
func (c *BatchCtx) SizeFor(span Span) int {
	return int(max(1, min(int64(c.Size), span.Len())))
}

// Fork returns a worker-private context: same batch size, fresh intern
// table, zero counters. Handles produced under the fork are meaningful
// only against the fork's table.
func (c *BatchCtx) Fork() *BatchCtx {
	return &BatchCtx{Size: c.Size, Intern: NewIntern()}
}

// AbsorbCounters folds a completed fork's counters (batch tallies and
// intern hit/miss totals) into c, leaving the fork's table behind.
func (c *BatchCtx) AbsorbCounters(o *BatchCtx) {
	c.Batches += o.Batches
	c.Rows += o.Rows
	c.Intern.strHits += o.Intern.strHits
	c.Intern.strMisses += o.Intern.strMisses
	c.Intern.recHits += o.Intern.recHits
	c.Intern.recMisses += o.Intern.recMisses
}

// BatchCursor is the vectorized counterpart of Cursor: a stream of
// columnar batches in ascending position order. See Batch for the
// ownership and span-tiling contract.
type BatchCursor interface {
	// NextBatch returns the next batch, or false when the stream is
	// exhausted or failed (Err distinguishes the two).
	NextBatch() (*Batch, bool)
	// Err returns the error that terminated iteration, if any.
	Err() error
	// Close releases resources. Safe to call multiple times.
	Close() error
}

// BatchScanner is implemented by sequences that can serve scans
// natively in batch form. Sequences without it are bridged through
// BatchCursorFrom.
type BatchScanner interface {
	ScanBatches(span Span, ctx *BatchCtx) BatchCursor
}

// emptyBatchCursor yields nothing.
type emptyBatchCursor struct{}

func (emptyBatchCursor) NextBatch() (*Batch, bool) { return nil, false }
func (emptyBatchCursor) Err() error                { return nil }
func (emptyBatchCursor) Close() error              { return nil }

// EmptyBatchCursor returns a cursor yielding no batches.
func EmptyBatchCursor() BatchCursor { return emptyBatchCursor{} }

// errBatchCursor yields nothing and reports err.
type errBatchCursor struct{ err error }

func (c errBatchCursor) NextBatch() (*Batch, bool) { return nil, false }
func (c errBatchCursor) Err() error                { return c.err }
func (c errBatchCursor) Close() error              { return nil }

// ErrBatchCursor returns a cursor that yields nothing and reports err.
func ErrBatchCursor(err error) BatchCursor { return errBatchCursor{err: err} }

// BatchCursorFrom bridges a record-at-a-time cursor into the batch
// protocol: rows are packed into batches of ctx.Size, and the emitted
// batch spans tile the given scan span exactly (the final batch absorbs
// the tail of the span). This is the adapter that keeps every plan
// runnable while operators are converted one by one.
func BatchCursorFrom(cur Cursor, span Span, schema *Schema, ctx *BatchCtx) BatchCursor {
	if span.IsEmpty() {
		cur.Close()
		return emptyBatchCursor{}
	}
	return &adapterBatchCursor{
		in: cur, schema: schema, ctx: ctx,
		next: span.Start, end: span.End,
	}
}

type adapterBatchCursor struct {
	in     Cursor
	schema *Schema
	ctx    *BatchCtx
	batch  *Batch
	next   Pos // start of the next batch's span
	end    Pos // end of the scan span (tail absorbed by the final batch)
	err    error
	done   bool
}

func (c *adapterBatchCursor) NextBatch() (*Batch, bool) {
	if c.done || c.err != nil {
		return nil, false
	}
	if c.batch == nil {
		c.batch = NewBatchFor(c.schema, c.ctx.SizeFor(Span{Start: c.next, End: c.end}))
	}
	b := c.batch
	b.Reset()
	b.Span = Span{Start: c.next, End: c.end}
	for b.Rows() < c.ctx.Size {
		pos, rec, ok := c.in.Next()
		if !ok {
			if err := c.in.Err(); err != nil {
				c.err = err
				return nil, false
			}
			// Input exhausted: this final batch covers the rest of the
			// scan span.
			c.done = true
			return b, true
		}
		if err := b.AppendRow(pos, rec, c.ctx.Intern); err != nil {
			c.err = err
			return nil, false
		}
	}
	// Full batch: its span ends at its last row so the next batch can
	// start right after it.
	b.Span.End = b.Pos[b.Rows()-1]
	c.next = b.Span.End + 1 //seqvet:ignore spanarith row positions lie inside the bounded scan span
	if c.next > c.end {
		c.done = true
	}
	return b, true
}

func (c *adapterBatchCursor) Err() error   { return c.err }
func (c *adapterBatchCursor) Close() error { return c.in.Close() }

// ScanBatches implements BatchScanner natively: entry windows are
// decomposed straight into column vectors, one tight loop per column.
func (m *Materialized) ScanBatches(span Span, ctx *BatchCtx) BatchCursor {
	eff := span.Intersect(m.span)
	if eff.IsEmpty() {
		return emptyBatchCursor{}
	}
	lo := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].Pos >= eff.Start })
	hi := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].Pos > eff.End })
	return &matBatchCursor{entries: m.entries[lo:hi], schema: m.schema, ctx: ctx, next: eff.Start, end: eff.End}
}

type matBatchCursor struct {
	entries []Entry
	schema  *Schema
	ctx     *BatchCtx
	batch   *Batch
	i       int
	next    Pos
	end     Pos
	err     error
	done    bool
}

func (c *matBatchCursor) NextBatch() (*Batch, bool) {
	if c.done || c.err != nil {
		return nil, false
	}
	if c.batch == nil {
		c.batch = NewBatchFor(c.schema, c.ctx.SizeFor(Span{Start: c.next, End: c.end}))
	}
	b := c.batch
	b.Reset()
	n := len(c.entries) - c.i
	if n > c.ctx.Size {
		n = c.ctx.Size
	}
	win := c.entries[c.i : c.i+n]
	b.Span = Span{Start: c.next, End: c.end}
	if err := b.AppendEntryRows(win, c.ctx.Intern); err != nil {
		c.err = err
		return nil, false
	}
	c.i += n
	if c.i >= len(c.entries) {
		c.done = true
		return b, true
	}
	b.Span.End = b.Pos[n-1]
	c.next = b.Span.End + 1 //seqvet:ignore spanarith row positions lie inside the bounded scan span
	return b, true
}

func (c *matBatchCursor) Err() error   { return c.err }
func (c *matBatchCursor) Close() error { return nil }

// FromSortedEntries builds a Materialized from entries already in
// strictly ascending position order with non-Null records — what the
// batch collector produces. Order and nullness are verified in one
// cheap pass (a violation indicates an operator bug and is reported as
// an error); per-record schema conformance is not re-checked, because
// batch columns are typed at construction.
func FromSortedEntries(schema *Schema, entries []Entry) (*Materialized, error) {
	if schema == nil {
		return nil, fmt.Errorf("seq: nil schema")
	}
	for i := range entries {
		if entries[i].Rec.IsNull() {
			return nil, fmt.Errorf("seq: Null record at position %d in sorted entries", entries[i].Pos)
		}
		if i > 0 && entries[i].Pos <= entries[i-1].Pos {
			return nil, fmt.Errorf("seq: entries not strictly ascending: %d after %d", entries[i].Pos, entries[i-1].Pos)
		}
		if entries[i].Pos <= MinPos || entries[i].Pos >= MaxPos {
			return nil, fmt.Errorf("seq: position %d out of representable range", entries[i].Pos)
		}
	}
	m := &Materialized{schema: schema, entries: entries, span: EmptySpan}
	if len(entries) > 0 {
		m.span = Span{Start: entries[0].Pos, End: entries[len(entries)-1].Pos}
	}
	return m, nil
}
