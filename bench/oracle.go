package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/seq"
)

// An answer is checked as (row count, order-sensitive checksum). The
// checksum is a polynomial hash of per-row hashes, h' = h*hashBase +
// rowHash(row) in wrapping 64-bit arithmetic, so the checksum of any
// contiguous run of reference rows follows from prefix sums and the
// oracle answers a sub-span query without re-evaluating it.

const (
	hashBase   = 1099511628211 // odd, so multiplication is a bijection mod 2^64
	hashOffset = 14695981039346656037
)

// appendValue appends a value's canonical bytes: type tag, then content.
func appendValue(b []byte, v seq.Value) []byte {
	b = append(b, byte(v.T))
	switch v.T {
	case seq.TInt:
		b = binary.AppendVarint(b, v.AsInt())
	case seq.TFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
	case seq.TString:
		b = binary.AppendVarint(b, int64(len(v.AsStr())))
		b = append(b, v.AsStr()...)
	case seq.TBool:
		if v.AsBool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// appendEntry appends a row's canonical bytes: position, then values.
// Their length is also what "encoded user bytes" counts.
func appendEntry(b []byte, e seq.Entry) []byte {
	b = binary.AppendVarint(b, e.Pos)
	for _, v := range e.Rec {
		b = appendValue(b, v)
	}
	return b
}

// rowHash is FNV-1a over the row's canonical bytes.
func rowHash(e seq.Entry, scratch []byte) (uint64, []byte) {
	scratch = appendEntry(scratch[:0], e)
	h := uint64(hashOffset)
	for _, c := range scratch {
		h = (h ^ uint64(c)) * hashBase
	}
	return h, scratch
}

// checksum folds rows, in order, into the answer checksum.
func checksum(entries []seq.Entry) uint64 {
	var h uint64
	var scratch []byte
	for _, e := range entries {
		var rh uint64
		rh, scratch = rowHash(e, scratch)
		h = h*hashBase + rh
	}
	return h
}

// refSeries is one reference query's rows, reduced to what answering a
// sub-span needs: positions, prefix checksums and powers of hashBase.
type refSeries struct {
	span seq.Span
	pos  []int64
	pre  []uint64 // pre[i] = checksum of the first i rows
	pow  []uint64 // pow[i] = hashBase^i
}

func newRefSeries(span seq.Span, entries []seq.Entry) *refSeries {
	r := &refSeries{
		span: span,
		pos:  make([]int64, len(entries)),
		pre:  make([]uint64, len(entries)+1),
		pow:  make([]uint64, len(entries)+1),
	}
	r.pow[0] = 1
	var scratch []byte
	for i, e := range entries {
		var rh uint64
		rh, scratch = rowHash(e, scratch)
		r.pos[i] = e.Pos
		r.pre[i+1] = r.pre[i]*hashBase + rh
		r.pow[i+1] = r.pow[i] * hashBase
	}
	return r
}

// answer returns the expected row count and checksum of the reference
// query over [start, end], which must lie inside the evaluated span.
func (r *refSeries) answer(start, end int64) (rows int, sum uint64, err error) {
	if start < r.span.Start || end > r.span.End {
		return 0, 0, fmt.Errorf("oracle: [%d, %d] outside the evaluated span %v", start, end, r.span)
	}
	lo := sort.Search(len(r.pos), func(i int) bool { return r.pos[i] >= start })
	hi := sort.Search(len(r.pos), func(i int) bool { return r.pos[i] > end })
	return hi - lo, r.pre[hi] - r.pre[lo]*r.pow[hi-lo], nil
}

// catalogOf binds query text against in-memory copies of the bases.
func catalogOf(bases map[string]*seq.Materialized) parser.Catalog {
	return parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		m, ok := bases[name]
		if !ok {
			return nil, false
		}
		return algebra.Base(name, m), true
	})
}

// reference evaluates a query with the algebra reference interpreter.
func reference(seql string, span seq.Span, bases map[string]*seq.Materialized) ([]seq.Entry, error) {
	root, err := parser.Bind(seql, catalogOf(bases))
	if err != nil {
		return nil, err
	}
	return algebra.EvalRange(root, span)
}

// recompute evaluates a query with the engine's scalar plane, no views:
// the cross-check of the reference interpreter, and the full recompute a
// maintained view or a subscriber's copy is compared against where the
// interpreter's per-position window walk would take minutes.
func recompute(seql string, span seq.Span, bases map[string]*seq.Materialized) ([]seq.Entry, error) {
	root, err := parser.Bind(seql, catalogOf(bases))
	if err != nil {
		return nil, err
	}
	res, err := core.Optimize(root, span, core.Options{Batch: exec.BatchOff, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	out, err := res.Run()
	if err != nil {
		return nil, err
	}
	return out.Entries(), nil
}

// buildOracle evaluates every reference query with the interpreter and
// cross-checks it against the scalar engine; a disagreement between the
// two fails set-up, because then neither can be trusted as the oracle.
func buildOracle(w *workload) ([]*refSeries, error) {
	bases := make(map[string]*seq.Materialized, len(w.Bases))
	for _, b := range w.Bases {
		bases[b.Name] = b.Data
	}
	out := make([]*refSeries, len(w.Refs))
	for i, q := range w.Refs {
		want, err := reference(q.SEQL, q.Span, bases)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q.SEQL, err)
		}
		got, err := recompute(q.SEQL, q.Span, bases)
		if err != nil {
			return nil, fmt.Errorf("oracle cross-check: %s: %w", q.SEQL, err)
		}
		if len(got) != len(want) || checksum(got) != checksum(want) {
			return nil, fmt.Errorf("oracle: reference interpreter and scalar engine disagree on %s over %v (%d vs %d rows)",
				q.SEQL, q.Span, len(want), len(got))
		}
		out[i] = newRefSeries(q.Span, want)
	}
	return out, nil
}
