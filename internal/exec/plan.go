// Package exec implements physical query evaluation: the operator
// implementations behind query plans, in both access modes of §3.3
// (stream and probed), together with the caching strategies of §3.4–3.5.
//
// Every physical operator implements seq.Sequence — Scan is the stream
// access, Probe the probed access — so a plan is simply a tree of
// sequences, and choosing an access mode for an edge means calling Scan
// or Probe on the child. Each operator has one stream implementation:
// the converted operators stream in batches (BatchScanOf), and their
// Scan reads that batch stream row by row; the ablation operators of
// the paper's experiments, collapse and expand stream record by record
// and reach the batch plane through an adapter. Probe is always
// record-at-a-time. Plan nodes additionally expose a label and their
// children for EXPLAIN output, and any operator caches they own for
// cache-residency accounting (the cache-finite property of Definition
// 3.2 is checked by inspecting Peak() of every cache after a run).
package exec

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/seq"
)

// Plan is a physical operator: a sequence with explanation metadata.
type Plan interface {
	seq.Sequence
	// Label describes the operator and its strategy, e.g.
	// "compose-lockstep" or "agg-cacheA(sum,w=6)".
	Label() string
	// Children returns the plan's input operators.
	Children() []Plan
	// Caches returns the operator's own caches (not its children's).
	Caches() []*cache.FIFO
}

// Explain renders the plan tree, one operator per line.
func Explain(p Plan) string {
	var b strings.Builder
	var walk func(n Plan, depth int)
	walk = func(n Plan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return strings.TrimRight(b.String(), "\n")
}

// AllCaches collects every cache in the plan tree.
func AllCaches(p Plan) []*cache.FIFO {
	out := append([]*cache.FIFO(nil), p.Caches()...)
	for _, c := range p.Children() {
		out = append(out, AllCaches(c)...)
	}
	return out
}

// CacheBudget returns the total configured capacity of the plan's
// operator caches — the constant memory bound a stream-access evaluation
// promises (Definition 3.2: "the size of the cache at every operator is
// a constant determined independent of the actual data").
func CacheBudget(p Plan) int {
	total := 0
	for _, c := range AllCaches(p) {
		total += c.Cap()
	}
	return total
}

// PeakCacheResidency returns the total peak number of cached records
// across all operator caches of the plan — the memory bound the
// stream-access property promises to keep constant.
func PeakCacheResidency(p Plan) int {
	total := 0
	for _, c := range AllCaches(p) {
		total += c.Peak()
	}
	return total
}

// Run drains the plan over the given bounded span and materializes the
// result. This is the Start operator of §4 (Figure 6): it "initiates
// query evaluation by invoking a stream access on its input". ctx picks
// how the root is drained: nil drains its row Scan (below the root the
// plan runs on batches all the same); otherwise the batch pipeline runs
// under ctx, whose counters account the consumed batches. Batch
// producers emit entries in strictly ascending position order, so that
// result skips NewMaterialized's sort and is assembled with one
// verification pass. The semantic ground truth is the reference
// interpreter, algebra.EvalRange.
func Run(p Plan, span seq.Span, ctx *seq.BatchCtx) (*seq.Materialized, error) {
	if ctx == nil {
		entries, err := seq.Collect(p.Scan(span))
		if err != nil {
			return nil, err
		}
		return seq.NewMaterialized(p.Info().Schema, entries)
	}
	entries, err := CollectBatchesIn(BatchScanOf(p, span, ctx), ctx, span)
	if err != nil {
		return nil, err
	}
	return seq.FromSortedEntries(p.Info().Schema, entries)
}

// RunProbes evaluates the plan in probed mode at each given position (the
// "records at specific positions" query form of §4) and returns the
// non-Null answers.
func RunProbes(p Plan, positions []seq.Pos) ([]seq.Entry, error) {
	var out []seq.Entry
	for _, pos := range positions {
		r, err := p.Probe(pos)
		if err != nil {
			return nil, err
		}
		if !r.IsNull() {
			out = append(out, seq.Entry{Pos: pos, Rec: r.Clone()})
		}
	}
	return out, nil
}

// Leaf adapts a base sequence (typically a storage.Store) into a plan
// node, restricting every scan to the access span the top-down span pass
// derived for it (§3.2). Probes outside the access span still answer —
// restriction is an optimization, not a semantic change — but scans never
// leave the window.
type Leaf struct {
	Name       string
	Seq        seq.Sequence
	AccessSpan seq.Span
}

// NewLeaf builds a leaf over the sequence with an access-span
// restriction. Pass seq.AllSpan to leave scans unrestricted.
func NewLeaf(name string, s seq.Sequence, accessSpan seq.Span) *Leaf {
	return &Leaf{Name: name, Seq: s, AccessSpan: accessSpan}
}

// Info implements seq.Sequence.
func (l *Leaf) Info() seq.Info {
	info := l.Seq.Info()
	info.Span = info.Span.Intersect(l.AccessSpan)
	return info
}

// Scan implements seq.Sequence.
func (l *Leaf) Scan(span seq.Span) seq.Cursor {
	return l.Seq.Scan(span.Intersect(l.AccessSpan))
}

// Probe implements seq.Sequence.
func (l *Leaf) Probe(pos seq.Pos) (seq.Record, error) { return l.Seq.Probe(pos) }

// Label implements Plan.
func (l *Leaf) Label() string {
	if l.AccessSpan == seq.AllSpan {
		return fmt.Sprintf("scan(%s)", l.Name)
	}
	return fmt.Sprintf("scan(%s, span=%s)", l.Name, l.AccessSpan)
}

// Children implements Plan.
func (l *Leaf) Children() []Plan { return nil }

// Caches implements Plan.
func (l *Leaf) Caches() []*cache.FIFO { return nil }

// Rename exposes its input under a different schema (same arity and
// types, different attribute names) at zero per-record cost. The block
// optimizer uses it when a join plan's column order already matches the
// original query but the qualifier-derived names differ.
type Rename struct {
	In     Plan
	schema *seq.Schema
}

// NewRename wraps the input with the given schema; arity and types must
// match.
func NewRename(in Plan, schema *seq.Schema) (*Rename, error) {
	old := in.Info().Schema
	if old.NumFields() != schema.NumFields() {
		return nil, fmt.Errorf("exec: rename arity mismatch: %d vs %d", old.NumFields(), schema.NumFields())
	}
	for i := 0; i < old.NumFields(); i++ {
		if old.Field(i).Type != schema.Field(i).Type {
			return nil, fmt.Errorf("exec: rename type mismatch at %d: %s vs %s",
				i, old.Field(i).Type, schema.Field(i).Type)
		}
	}
	return &Rename{In: in, schema: schema}, nil
}

// Info implements seq.Sequence.
func (r *Rename) Info() seq.Info {
	info := r.In.Info()
	info.Schema = r.schema
	return info
}

// Scan implements seq.Sequence.
func (r *Rename) Scan(span seq.Span) seq.Cursor { return r.In.Scan(span) }

// Probe implements seq.Sequence.
func (r *Rename) Probe(pos seq.Pos) (seq.Record, error) { return r.In.Probe(pos) }

// Label implements Plan.
func (r *Rename) Label() string { return "rename" }

// Children implements Plan.
func (r *Rename) Children() []Plan { return []Plan{r.In} }

// Caches implements Plan.
func (r *Rename) Caches() []*cache.FIFO { return nil }

// probeScan is the stream scan of an operator evaluated by probing (the
// naive algorithms of §4.1.2): every position of span within the
// operator's own span is probed once, and the non-Null answers are
// emitted in order. what names the operator in the unbounded-span error.
func probeScan(p Plan, span seq.Span, what string) seq.Cursor {
	span = span.Intersect(p.Info().Span)
	if span.IsEmpty() {
		return emptyCursor{}
	}
	if !span.Bounded() {
		return seq.ErrCursor(fmt.Errorf("exec: unbounded scan of %s (span %v)", what, span))
	}
	pos := span.Start
	return &forwardCursor{
		next: func() (seq.Pos, seq.Record, bool, error) {
			for pos <= span.End {
				at := pos
				pos++
				r, err := p.Probe(at)
				if err != nil {
					return 0, nil, false, err
				}
				if !r.IsNull() {
					return at, r, true, nil
				}
			}
			return 0, nil, false, nil
		},
	}
}

// forwardCursor adapts a Next function into a seq.Cursor.
type forwardCursor struct {
	next   func() (seq.Pos, seq.Record, bool, error)
	closes []func() error
	err    error
	done   bool
}

func (c *forwardCursor) Next() (seq.Pos, seq.Record, bool) {
	if c.done {
		return 0, nil, false
	}
	p, r, ok, err := c.next()
	if err != nil {
		c.err = err
		c.done = true
		return 0, nil, false
	}
	if !ok {
		c.done = true
		return 0, nil, false
	}
	return p, r, true
}

func (c *forwardCursor) Err() error { return c.err }

func (c *forwardCursor) Close() error {
	var first error
	for _, f := range c.closes {
		if err := f(); err != nil && first == nil {
			first = err
		}
	}
	c.closes = nil
	return first
}

// pullCursor wraps a cursor with single-entry lookahead.
type pullCursor struct {
	in      seq.Cursor
	pending seq.Entry
	have    bool
	done    bool
}

func newPull(in seq.Cursor) *pullCursor { return &pullCursor{in: in} }

// peek returns the next entry without consuming it.
func (p *pullCursor) peek() (seq.Entry, bool, error) {
	if p.have {
		return p.pending, true, nil
	}
	if p.done {
		return seq.Entry{}, false, nil
	}
	pos, rec, ok := p.in.Next()
	if !ok {
		p.done = true
		return seq.Entry{}, false, p.in.Err()
	}
	p.pending = seq.Entry{Pos: pos, Rec: rec}
	p.have = true
	return p.pending, true, nil
}

// take consumes the pending entry.
func (p *pullCursor) take() { p.have = false }

func (p *pullCursor) close() error { return p.in.Close() }
