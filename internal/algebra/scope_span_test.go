package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// TestReadReachSpanPerKind pins both scope maps on every kind: collapse
// flooring negative positions, sentinel sides passing through, empty
// spans staying empty, unbounded windows saturating, and value offsets
// of both signs read through their Def. 3.3 effective windows.
func TestReadReachSpanPerKind(t *testing.T) {
	b := mkBase(t, "s", 1, 2, 3)
	must := func(n *Node, err error) *Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	span := seq.NewSpan
	lo := func(end seq.Pos) seq.Span { return seq.Span{Start: seq.MinPos, End: end} }
	hi := func(start seq.Pos) seq.Span { return seq.Span{Start: start, End: seq.MaxPos} }

	cases := []struct {
		name        string
		node        *Node
		arg         seq.Span
		read, reach seq.Span
	}{
		{"select", must(Select(b, gtConst(t, b, "close", 0))), span(3, 7), span(3, 7), span(3, 7)},
		{"project keeps a sentinel side", must(ProjectCols(b, "close")), lo(7), lo(7), lo(7)},
		{"compose of an empty span", must(Compose(b, mkBase(t, "r", 1), nil, "l", "r")), seq.EmptySpan, seq.EmptySpan, seq.EmptySpan},
		{"offset back", must(PosOffset(b, -5)), span(3, 7), span(-2, 2), span(8, 12)},
		{"offset forward, unbounded above", must(PosOffset(b, 3)), hi(10), hi(13), hi(7)},
		{"trailing window", must(AggCol(b, AggSum, "close", Trailing(3), "")), span(10, 12), span(8, 12), span(10, 14)},
		{"trailing window, unbounded below", must(AggCol(b, AggSum, "close", Trailing(3), "")), lo(12), lo(12), lo(14)},
		{"leading window", must(AggCol(b, AggSum, "close", Range(1, 3), "")), span(10, 12), span(11, 15), span(7, 11)},
		{"cumulative window", must(AggCol(b, AggSum, "close", Cumulative(), "")), span(10, 12), lo(12), hi(10)},
		{"whole-sequence window", must(AggCol(b, AggSum, "close", All(), "")), span(10, 12), seq.AllSpan, seq.AllSpan},
		{"backward voffset", must(ValueOffset(b, -2)), span(10, 12), lo(11), hi(11)},
		{"forward voffset", must(ValueOffset(b, 1)), span(10, 12), hi(11), lo(11)},
		{"forward voffset of an empty span", must(ValueOffset(b, 3)), seq.EmptySpan, seq.EmptySpan, seq.EmptySpan},
		{"collapse floors negative positions", must(Collapse(b, 3, AggSpec{Func: AggCount, Arg: -1})), span(-4, 4), span(-12, 14), span(-2, 1)},
		{"collapse, unbounded below", must(Collapse(b, 3, AggSpec{Func: AggCount, Arg: -1})), lo(4), lo(14), lo(1)},
		{"expand", must(Expand(b, 4)), span(-5, 9), span(-2, 2), span(-20, 39)},
		{"expand, unbounded above", must(Expand(b, 4)), hi(-5), hi(-2), hi(-20)},
		{"leaf has no input", b, span(3, 7), seq.EmptySpan, seq.EmptySpan},
	}
	for _, c := range cases {
		if got := c.node.ReadSpan(0, c.arg); got != c.read {
			t.Errorf("%s: ReadSpan(%v) = %v, want %v", c.name, c.arg, got, c.read)
		}
		if got := c.node.ReachSpan(c.arg); got != c.reach {
			t.Errorf("%s: ReachSpan(%v) = %v, want %v", c.name, c.arg, got, c.reach)
		}
	}
	if got := cases[2].node.ReadSpan(1, span(3, 7)); got != span(3, 7) {
		t.Errorf("compose right input: ReadSpan = %v, want [3, 7]", got)
	}
	if got := cases[2].node.ReadSpan(2, span(3, 7)); !got.IsEmpty() {
		t.Errorf("compose has no input 2, ReadSpan = %v", got)
	}
}

// TestReadReachSpanInverse is the law that makes ReachSpan ReadSpan's
// inverse: over random kinds, parameters and bounded positions,
// o ∈ ReachSpan({i}) exactly when i ∈ ReadSpan({o}).
func TestReadReachSpanInverse(t *testing.T) {
	b := mkBase(t, "s", 1, 2, 3)
	rng := rand.New(rand.NewSource(7))
	randWindow := func() Window {
		switch rng.Intn(4) {
		case 0:
			return Cumulative()
		case 1:
			return Window{Lo: int64(rng.Intn(7) - 3), HiUnbounded: true}
		case 2:
			return All()
		default:
			l := int64(rng.Intn(11) - 5)
			return Range(l, l+int64(rng.Intn(6)))
		}
	}
	randNode := func() *Node {
		var n *Node
		var err error
		switch rng.Intn(6) {
		case 0:
			n, err = ProjectCols(b, "close")
		case 1:
			n, err = PosOffset(b, int64(rng.Intn(11)-5))
		case 2:
			n, err = AggCol(b, AggSum, "close", randWindow(), "")
		case 3:
			k := int64(1 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				k = -k
			}
			n, err = ValueOffset(b, k)
		case 4:
			n, err = Collapse(b, int64(2+rng.Intn(4)), AggSpec{Func: AggCount, Arg: -1})
		default:
			n, err = Expand(b, int64(2+rng.Intn(4)))
		}
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for trial := 0; trial < 300; trial++ {
		n := randNode()
		for k := 0; k < 40; k++ {
			i, o := seq.Pos(rng.Intn(61)-30), seq.Pos(rng.Intn(61)-30)
			reach := n.ReachSpan(seq.NewSpan(i, i)).Contains(o)
			read := n.ReadSpan(0, seq.NewSpan(o, o)).Contains(i)
			if reach != read {
				t.Fatalf("%s (offset %d, factor %d, agg %v): o=%d ∈ ReachSpan({%d}) is %v but i ∈ ReadSpan({o}) is %v",
					n.Kind, n.Offset, n.Factor, n.Agg, o, i, reach, read)
			}
		}
	}
}

// TestWindowAddHull checks window composition and hull, including
// saturation of unbounded sides.
func TestWindowAddHull(t *testing.T) {
	if got, want := Range(-2, 1).Add(Range(3, 4)), Range(1, 5); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := Cumulative().Add(Range(3, 4)), (Window{LoUnbounded: true, Hi: 4}); got != want {
		t.Errorf("Add with an unbounded side = %v, want %v", got, want)
	}
	if got, want := Range(-2, 1).Hull(Range(0, 4)), Range(-2, 4); got != want {
		t.Errorf("Hull = %v, want %v", got, want)
	}
	if got, want := Range(-2, 1).Hull(Window{Lo: 3, HiUnbounded: true}), (Window{Lo: -2, HiUnbounded: true}); got != want {
		t.Errorf("Hull with an unbounded side = %v, want %v", got, want)
	}
}
