package algebra

import (
	"testing"

	"repro/internal/seq"
)

// TestScopeWindowsPerOperator pins the Win component of every
// operator's scope — the relative window Proposition 2.1(c) sums along
// paths — including the Definition 3.3 effective-scope windows of value
// offsets on both sides.
func TestScopeWindowsPerOperator(t *testing.T) {
	b := mkBase(t, "s", 1, 2, 3)
	sel, _ := Select(b, gtConst(t, b, "close", 0))
	po, _ := PosOffset(b, -5)
	fwd, _ := PosOffset(b, 3)
	ag, _ := AggCol(b, AggSum, "close", Range(-2, 4), "")
	cum, _ := AggCol(b, AggSum, "close", Cumulative(), "")
	all, _ := AggCol(b, AggSum, "close", All(), "")

	cases := []struct {
		name string
		node *Node
		want Window
	}{
		{"select", sel, Range(0, 0)},
		{"offset-back", po, Range(-5, -5)},
		{"offset-fwd", fwd, Range(3, 3)},
		{"agg-range", ag, Range(-2, 4)},
		{"agg-cumulative", cum, Window{LoUnbounded: true, Hi: 0}},
		{"agg-all", all, Window{LoUnbounded: true, HiUnbounded: true}},
	}
	for _, c := range cases {
		p, err := c.node.Scope(0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Win != c.want {
			t.Errorf("%s: window = %v, want %v", c.name, p.Win, c.want)
		}
	}
}

// TestValueOffsetEffectiveScope checks Definition 3.3: the true scope of
// a value offset is data-dependent, so its effective scope is the
// open-ended hull on the side the offset reads — (-inf, -1] for any
// backward offset, [+1, +inf) for any forward one, with magnitude
// deliberately absent (the l-th non-Null neighbor can be arbitrarily
// far).
func TestValueOffsetEffectiveScope(t *testing.T) {
	b := mkBase(t, "s", 1, 2, 3)
	for _, off := range []int64{-4, -1, 1, 7} {
		vo, err := ValueOffset(b, off)
		if err != nil {
			t.Fatal(err)
		}
		p, err := vo.Scope(0)
		if err != nil {
			t.Fatal(err)
		}
		want := Window{LoUnbounded: true, Hi: -1}
		if off > 0 {
			want = Window{Lo: 1, HiUnbounded: true}
		}
		if p.Win != want {
			t.Errorf("voffset(%d): effective window = %v, want %v", off, p.Win, want)
		}
		if p.FixedSize || p.Sequential || p.Relative {
			t.Errorf("voffset(%d): scope %+v claims properties a data-dependent scope cannot have", off, p)
		}
	}
}

// TestCompositionWindowsAcrossKinds sums windows along mixed paths and
// compares with QueryScopes — Prop. 2.1(c) end to end, including the
// saturation of unbounded effective-scope sides.
func TestCompositionWindowsAcrossKinds(t *testing.T) {
	b := mkBase(t, "s", 1, 2, 3)

	// offset(+3) over agg[-2,4] over offset(-5): windows add.
	inner, _ := PosOffset(b, -5)
	ag, _ := AggCol(inner, AggSum, "close", Range(-2, 4), "")
	outer, _ := PosOffset(ag, 3)
	got := QueryScopes(outer)[b]
	if want := Range(-4, 2); got.Win != want {
		t.Errorf("summed window = %v, want %v", got.Win, want)
	}
	if !got.Relative || !got.FixedSize {
		t.Errorf("composed scope %+v lost relativity/fixedness", got)
	}

	// A backward value offset anywhere on the path makes the composed
	// window open below and poisons fixedness, but arithmetic on the
	// bounded side still applies.
	vo, _ := Previous(b)
	shifted, _ := PosOffset(vo, 2)
	got = QueryScopes(shifted)[b]
	if !got.Win.LoUnbounded || got.Win.HiUnbounded {
		t.Errorf("voffset path window = %v, want open below, closed above", got.Win)
	}
	if got.Win.Hi != 1 {
		t.Errorf("voffset path window hi = %d, want -1+2 = 1", got.Win.Hi)
	}
	if got.FixedSize || got.Sequential || got.Relative {
		t.Errorf("voffset path scope %+v retains properties the offset destroyed", got)
	}

	// Forward value offset: open above.
	nx, _ := Next(b)
	lag, _ := AggCol(nx, AggSum, "close", Trailing(3), "")
	got = QueryScopes(lag)[b]
	if got.Win.LoUnbounded || !got.Win.HiUnbounded {
		t.Errorf("forward voffset path window = %v, want open above, closed below", got.Win)
	}
	if got.Win.Lo != -1 {
		t.Errorf("forward voffset path window lo = %d, want 1+(-2) = -1", got.Win.Lo)
	}

	// Collapse and Expand are not relative nor sequential: composition
	// through them drops both properties (their group-based scope cannot
	// be expressed as a window around the current position, so the
	// composed size comes from the summed windows alone).
	col, _ := Collapse(b, 4, AggSpec{Func: AggSum, Arg: 0})
	got = QueryScopes(col)[b]
	if got.Relative || got.Sequential {
		t.Errorf("collapse path scope %+v should be neither relative nor sequential", got)
	}
	ex, _ := Expand(b, 4)
	got = QueryScopes(ex)[b]
	if got.Relative {
		t.Errorf("expand path scope %+v should not be relative", got)
	}
}

// TestReadWindowPerKind checks the relative form of ReadSpan on every
// kind: a window [lo, hi] is read as the span around position 0, plus
// one position of slack on the right through an expand. The collapse
// and expand rows also pin the input windows the partition halo has
// always derived for them, [lo·k, hi·k+k-1] and [⌊lo/k⌋, ⌊hi/k⌋+1].
func TestReadWindowPerKind(t *testing.T) {
	b := mkBase(t, "s", 1, 2, 3)
	must := func(n *Node, err error) *Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	schema := seq.MustSchema(seq.Field{Name: "v", Type: seq.TInt})
	col := must(Collapse(b, 4, AggSpec{Func: AggSum, Arg: 0}))
	ex := must(Expand(b, 4))
	open := func(lo int64) Window { return Window{Lo: lo, HiUnbounded: true} }

	cases := []struct {
		name string
		node *Node
		w    Window
		want Window
	}{
		{"base has no input", b, Range(-2, 1), Range(1, 0)},
		{"const has no input", must(Const(schema, seq.Record{seq.Int(1)})), Range(0, 0), Range(1, 0)},
		{"select", must(Select(b, gtConst(t, b, "close", 0))), Range(-2, 1), Range(-2, 1)},
		{"project", must(ProjectCols(b, "close")), open(-3), open(-3)},
		{"compose", must(Compose(b, mkBase(t, "r", 1), nil, "l", "r")), Range(-1, 0), Range(-1, 0)},
		{"offset", must(PosOffset(b, 2)), Range(-3, 0), Range(-1, 2)},
		{"trailing window", must(AggCol(b, AggSum, "close", Trailing(4), "")), Range(0, 0), Range(-3, 0)},
		{"cumulative window", must(AggCol(b, AggSum, "close", Cumulative(), "")), Range(-1, 2), Window{LoUnbounded: true, Hi: 2}},
		{"backward voffset", must(ValueOffset(b, -1)), Range(0, 3), Window{LoUnbounded: true, Hi: 2}},
		{"forward voffset", must(ValueOffset(b, 2)), Range(-3, 0), Window{Lo: -2, HiUnbounded: true}},
		{"collapse of the origin", col, Range(0, 0), Range(0, 3)},
		{"collapse of a window", col, Range(-1, 2), Range(-4, 11)},
		{"collapse floors nothing", col, Range(-3, -3), Range(-12, -9)},
		{"expand of the origin", ex, Range(0, 0), Range(0, 1)},
		{"expand of a window", ex, Range(-3, 4), Range(-1, 2)},
		{"expand floors negative offsets", ex, Range(-5, -5), Range(-2, -1)},
		{"expand, unbounded above", ex, open(-5), open(-2)},
	}
	kinds := make(map[Kind]bool)
	for _, c := range cases {
		kinds[c.node.Kind] = true
		got := c.node.ReadWindow(0, c.w)
		if got != c.want {
			t.Errorf("%s: ReadWindow(%v) = %v, want %v", c.name, c.w, got, c.want)
		}
		// The same positions as ReadSpan around 0.
		around := seq.AllSpan
		if !c.w.LoUnbounded {
			around.Start = c.w.Lo
		}
		if !c.w.HiUnbounded {
			around.End = c.w.Hi
		}
		read := c.node.ReadSpan(0, around)
		if c.node.Kind == KindExpand && !got.HiUnbounded {
			got.Hi--
		}
		if span := got.spread(seq.NewSpan(0, 0)); span != read {
			t.Errorf("%s: ReadWindow(%v) spans %v around 0, ReadSpan reads %v", c.name, c.w, span, read)
		}
	}
	for k := KindBase; k <= KindExpand; k++ {
		if !kinds[k] {
			t.Errorf("no ReadWindow case for %s", k)
		}
	}
}
