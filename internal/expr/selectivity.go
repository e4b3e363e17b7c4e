package expr

import (
	"math"

	"repro/internal/seq"
)

// ColStats summarizes the value distribution of one numeric attribute,
// the "statistical information about the base sequences" of §3 used to
// estimate predicate selectivities. Non-numeric attributes or unknown
// distributions leave Known false and fall back to default guesses.
type ColStats struct {
	Known    bool
	Min, Max float64
	Distinct int64
}

// Default selectivity guesses, in the System R tradition, used when no
// statistics are available.
const (
	DefaultEqSel    = 0.10
	DefaultRangeSel = 1.0 / 3.0
	DefaultBoolSel  = 0.50
)

// Selectivity estimates the fraction of records satisfying the boolean
// expression e. stats maps attribute index to column statistics; it may
// be nil. The estimate is clamped to [0, 1]. reads, when not nil, gets
// every comparison of a column against a slot literal the estimate
// derives from the literal's value: the estimator's only use of a
// literal's value.
func Selectivity(e Expr, stats map[int]ColStats, reads *[]SlotRead) float64 {
	return clamp01(selectivity(e, stats, reads))
}

// SlotRead is one estimate the selectivity estimator made from a slot
// literal's value: the comparison "column Op literal", the column's
// statistics, and the estimate.
type SlotRead struct {
	Slot  int
	Op    BinOp
	Stats ColStats
	Have  bool
	Sel   float64
}

// Same reports whether the estimate is bit-identical with v in the slot.
func (r SlotRead) Same(v seq.Value) bool {
	return math.Float64bits(literalSel(r.Op, r.Stats, r.Have, v)) == math.Float64bits(r.Sel)
}

func selectivity(e Expr, stats map[int]ColStats, reads *[]SlotRead) float64 {
	switch v := e.(type) {
	case *Lit:
		if v.Val.T == seq.TBool {
			if v.Val.AsBool() {
				return 1
			}
			return 0
		}
		return DefaultBoolSel
	case *Col:
		return DefaultBoolSel // a bare boolean column
	case *Not:
		return 1 - selectivity(v.E, stats, reads)
	case *Bin:
		switch {
		case v.Op == OpAnd:
			return selectivity(v.L, stats, reads) * selectivity(v.R, stats, reads)
		case v.Op == OpOr:
			a, b := selectivity(v.L, stats, reads), selectivity(v.R, stats, reads)
			return a + b - a*b
		case v.Op.Comparison():
			return comparisonSel(v, stats, reads)
		default:
			return DefaultBoolSel
		}
	default:
		return DefaultBoolSel
	}
}

// comparisonSel estimates col <op> literal comparisons from column range
// statistics under a uniformity assumption; everything else gets the
// default guesses.
func comparisonSel(b *Bin, stats map[int]ColStats, reads *[]SlotRead) float64 {
	col, lit, op, ok := normalizeComparison(b)
	if !ok {
		if b.Op == OpEq {
			return DefaultEqSel
		}
		if b.Op == OpNe {
			return 1 - DefaultEqSel
		}
		return DefaultRangeSel
	}
	st, have := stats[col.Index]
	sel := literalSel(op, st, have, lit.Val)
	if lit.Slot > 0 && reads != nil {
		*reads = append(*reads, SlotRead{Slot: lit.Slot, Op: op, Stats: st, Have: have, Sel: sel})
	}
	return sel
}

// literalSel estimates "col op x" for a column with statistics st (have
// false: none).
func literalSel(op BinOp, st ColStats, have bool, x seq.Value) float64 {
	switch op {
	case OpEq:
		if have && st.Known && st.Distinct > 0 {
			return 1 / float64(st.Distinct)
		}
		return DefaultEqSel
	case OpNe:
		if have && st.Known && st.Distinct > 0 {
			return 1 - 1/float64(st.Distinct)
		}
		return 1 - DefaultEqSel
	}
	if !have || !st.Known || !x.T.Numeric() || st.Max <= st.Min {
		return DefaultRangeSel
	}
	frac := (x.AsFloat() - st.Min) / (st.Max - st.Min) // P(col <= x), uniform
	switch op {
	case OpLt, OpLe:
		return clamp01(frac)
	default: // OpGt, OpGe
		return clamp01(1 - frac)
	}
}

// normalizeComparison rewrites "lit op col" into "col op' lit" and
// reports whether the comparison has the col-vs-literal shape.
func normalizeComparison(b *Bin) (*Col, *Lit, BinOp, bool) {
	if c, okc := b.L.(*Col); okc {
		if l, okl := b.R.(*Lit); okl {
			return c, l, b.Op, true
		}
	}
	if l, okl := b.L.(*Lit); okl {
		if c, okc := b.R.(*Col); okc {
			return c, l, flipComparison(b.Op), true
		}
	}
	return nil, nil, b.Op, false
}

func flipComparison(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
