package expr

import (
	"testing"

	"repro/internal/seq"
)

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestSelectivityDefaults(t *testing.T) {
	c := &Col{Index: 0, Name: "x", Typ: seq.TFloat}
	lt, _ := NewBin(OpLt, c, Literal(seq.Float(5)))
	eq, _ := NewBin(OpEq, c, Literal(seq.Float(5)))
	ne, _ := NewBin(OpNe, c, Literal(seq.Float(5)))
	if got := Selectivity(lt, nil, nil); !approx(got, DefaultRangeSel) {
		t.Errorf("range default = %g", got)
	}
	if got := Selectivity(eq, nil, nil); !approx(got, DefaultEqSel) {
		t.Errorf("eq default = %g", got)
	}
	if got := Selectivity(ne, nil, nil); !approx(got, 1-DefaultEqSel) {
		t.Errorf("ne default = %g", got)
	}
}

func TestSelectivityWithStats(t *testing.T) {
	c := &Col{Index: 0, Name: "x", Typ: seq.TFloat}
	stats := map[int]ColStats{0: {Known: true, Min: 0, Max: 100, Distinct: 50}}
	lt, _ := NewBin(OpLt, c, Literal(seq.Float(25)))
	if got := Selectivity(lt, stats, nil); !approx(got, 0.25) {
		t.Errorf("P(x<25) = %g, want 0.25", got)
	}
	gt, _ := NewBin(OpGt, c, Literal(seq.Float(25)))
	if got := Selectivity(gt, stats, nil); !approx(got, 0.75) {
		t.Errorf("P(x>25) = %g, want 0.75", got)
	}
	eq, _ := NewBin(OpEq, c, Literal(seq.Float(25)))
	if got := Selectivity(eq, stats, nil); !approx(got, 0.02) {
		t.Errorf("P(x=25) = %g, want 1/50", got)
	}
	ne, _ := NewBin(OpNe, c, Literal(seq.Float(25)))
	if got := Selectivity(ne, stats, nil); !approx(got, 0.98) {
		t.Errorf("P(x!=25) = %g, want 0.98", got)
	}
	// Out-of-range literals clamp.
	big, _ := NewBin(OpLt, c, Literal(seq.Float(1e9)))
	if got := Selectivity(big, stats, nil); got != 1 {
		t.Errorf("P(x<1e9) = %g, want 1", got)
	}
	neg, _ := NewBin(OpGt, c, Literal(seq.Float(1e9)))
	if got := Selectivity(neg, stats, nil); got != 0 {
		t.Errorf("P(x>1e9) = %g, want 0", got)
	}
}

func TestSelectivityFlippedComparison(t *testing.T) {
	c := &Col{Index: 0, Name: "x", Typ: seq.TFloat}
	stats := map[int]ColStats{0: {Known: true, Min: 0, Max: 100}}
	// 25 > x  is  x < 25
	e, _ := NewBin(OpGt, Literal(seq.Float(25)), c)
	if got := Selectivity(e, stats, nil); !approx(got, 0.25) {
		t.Errorf("P(25>x) = %g, want 0.25", got)
	}
	e, _ = NewBin(OpLe, Literal(seq.Float(25)), c)
	if got := Selectivity(e, stats, nil); !approx(got, 0.75) {
		t.Errorf("P(25<=x) = %g, want 0.75", got)
	}
}

func TestSelectivityConnectives(t *testing.T) {
	c := &Col{Index: 0, Name: "x", Typ: seq.TFloat}
	stats := map[int]ColStats{0: {Known: true, Min: 0, Max: 100}}
	lt, _ := NewBin(OpLt, c, Literal(seq.Float(50)))
	gt, _ := NewBin(OpGt, c, Literal(seq.Float(75)))
	and, _ := NewBin(OpAnd, lt, gt)
	if got := Selectivity(and, stats, nil); !approx(got, 0.5*0.25) {
		t.Errorf("and = %g", got)
	}
	or, _ := NewBin(OpOr, lt, gt)
	if got := Selectivity(or, stats, nil); !approx(got, 0.5+0.25-0.5*0.25) {
		t.Errorf("or = %g", got)
	}
	not, _ := NewNot(lt)
	if got := Selectivity(not, stats, nil); !approx(got, 0.5) {
		t.Errorf("not = %g", got)
	}
}

func TestSelectivityLiteralsAndColumns(t *testing.T) {
	if got := Selectivity(Literal(seq.Bool(true)), nil, nil); got != 1 {
		t.Errorf("true = %g", got)
	}
	if got := Selectivity(Literal(seq.Bool(false)), nil, nil); got != 0 {
		t.Errorf("false = %g", got)
	}
	if got := Selectivity(Literal(seq.Int(3)), nil, nil); !approx(got, DefaultBoolSel) {
		t.Errorf("non-bool literal = %g", got)
	}
	b := &Col{Index: 0, Name: "flag", Typ: seq.TBool}
	if got := Selectivity(b, nil, nil); !approx(got, DefaultBoolSel) {
		t.Errorf("bare bool column = %g", got)
	}
}

func TestSelectivityColVsColFallsBack(t *testing.T) {
	a := &Col{Index: 0, Name: "a", Typ: seq.TFloat}
	b := &Col{Index: 1, Name: "b", Typ: seq.TFloat}
	e, _ := NewBin(OpLt, a, b)
	if got := Selectivity(e, nil, nil); !approx(got, DefaultRangeSel) {
		t.Errorf("col<col = %g", got)
	}
	eq, _ := NewBin(OpEq, a, b)
	if got := Selectivity(eq, nil, nil); !approx(got, DefaultEqSel) {
		t.Errorf("col=col = %g", got)
	}
}

func TestSelectivityDegenerateStats(t *testing.T) {
	c := &Col{Index: 0, Name: "x", Typ: seq.TFloat}
	// Min == Max: range comparisons fall back to default.
	stats := map[int]ColStats{0: {Known: true, Min: 5, Max: 5, Distinct: 1}}
	lt, _ := NewBin(OpLt, c, Literal(seq.Float(5)))
	if got := Selectivity(lt, stats, nil); !approx(got, DefaultRangeSel) {
		t.Errorf("degenerate range = %g", got)
	}
	eq, _ := NewBin(OpEq, c, Literal(seq.Float(5)))
	if got := Selectivity(eq, stats, nil); !approx(got, 1) {
		t.Errorf("eq with distinct=1 = %g, want 1", got)
	}
}
