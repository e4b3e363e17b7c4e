package matview

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/seq"
)

// deltaBase builds a base leaf named "b" with non-Null records at the
// given positions (value = position), the post-write state the affected
// analysis scans.
func deltaBase(t *testing.T, positions ...int64) *algebra.Node {
	t.Helper()
	schema := seq.MustSchema(seq.Field{Name: "v", Type: seq.TInt})
	entries := make([]seq.Entry, len(positions))
	for i, p := range positions {
		entries[i] = seq.Entry{Pos: p, Rec: seq.Record{seq.Int(p)}}
	}
	data, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.Base("b", data)
}

// ops are applied outermost-last, e.g. posoff(2) then trailing(3) means
// trailing(3) over posoff(2) over base.
type deltaOp func(t *testing.T, in *algebra.Node) *algebra.Node

func posoff(o int64) deltaOp {
	return func(t *testing.T, in *algebra.Node) *algebra.Node {
		n, err := algebra.PosOffset(in, o)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

func voff(o int64) deltaOp {
	return func(t *testing.T, in *algebra.Node) *algebra.Node {
		n, err := algebra.ValueOffset(in, o)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

func agg(w algebra.Window) deltaOp {
	return func(t *testing.T, in *algebra.Node) *algebra.Node {
		n, err := algebra.Agg(in, algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: w})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

func collapse(k int64) deltaOp {
	return func(t *testing.T, in *algebra.Node) *algebra.Node {
		n, err := algebra.Collapse(in, k, algebra.AggSpec{Func: algebra.AggCount, Arg: 0})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

func expand(k int64) deltaOp {
	return func(t *testing.T, in *algebra.Node) *algebra.Node {
		n, err := algebra.Expand(in, k)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// TestAffectedSpan scans the washouts with the reference interpreter;
// core's TestPlanHaloWashoutOnEngine drives the same deltas through the
// engine.
func TestAffectedSpan(t *testing.T) {
	// Post-append data: records at 1..5, 8, and the appended 14. The gap
	// at 6..7 is the density boundary the value-offset washouts feel.
	positions := []int64{1, 2, 3, 4, 5, 8, 14}

	cases := []struct {
		name  string
		ops   []deltaOp
		delta seq.Span
		want  seq.Span
	}{
		{"identity: no operators", nil, seq.NewSpan(14, 14), seq.NewSpan(14, 14)},
		{"empty delta (reorganize) stays empty through a chain",
			[]deltaOp{posoff(2), agg(algebra.Trailing(3)), collapse(3)},
			seq.EmptySpan, seq.EmptySpan},
		{"posoffset shifts against its offset",
			[]deltaOp{posoff(2)}, seq.NewSpan(14, 14), seq.NewSpan(12, 12)},
		{"negative posoffset shifts the other way",
			[]deltaOp{posoff(-3)}, seq.NewSpan(14, 14), seq.NewSpan(17, 17)},
		{"trailing window reaches backward from the delta",
			[]deltaOp{agg(algebra.Trailing(3))}, seq.NewSpan(14, 14), seq.NewSpan(14, 16)},
		{"cumulative aggregate: everything at and above the delta",
			[]deltaOp{agg(algebra.Cumulative())}, seq.NewSpan(14, 14),
			seq.Span{Start: 14, End: seq.MaxPos}},
		{"anticipating window: everything at and below the delta",
			[]deltaOp{agg(algebra.Window{HiUnbounded: true})}, seq.NewSpan(14, 14),
			seq.Span{Start: seq.MinPos, End: 14}},
		{"collapse maps the delta into coarse groups",
			[]deltaOp{collapse(3)}, seq.NewSpan(14, 16), seq.NewSpan(4, 5)},
		{"collapse floors negative positions",
			[]deltaOp{collapse(3)}, seq.NewSpan(-4, -4), seq.NewSpan(-2, -2)},
		{"expand fans each input position across its group",
			[]deltaOp{expand(3)}, seq.NewSpan(4, 4), seq.NewSpan(12, 14)},
		{"backward voffset: tail append affects everything above it",
			[]deltaOp{voff(-1)}, seq.NewSpan(14, 14),
			seq.Span{Start: 15, End: seq.MaxPos}},
		{"backward voffset: mid-delta washes out at the next record above",
			[]deltaOp{voff(-1)}, seq.NewSpan(3, 3), seq.NewSpan(4, 4)},
		{"backward voffset(-2): needs two shields above",
			[]deltaOp{voff(-2)}, seq.NewSpan(3, 3), seq.NewSpan(4, 5)},
		{"forward voffset: washout spans the density gap below the delta",
			[]deltaOp{voff(1)}, seq.NewSpan(14, 14), seq.NewSpan(8, 13)},
		{"forward voffset(+2): two shields below",
			[]deltaOp{voff(2)}, seq.NewSpan(14, 14), seq.NewSpan(5, 13)},
		{"composed: trailing aggregate over shifted delta",
			[]deltaOp{posoff(2), agg(algebra.Trailing(3))},
			seq.NewSpan(14, 14), seq.NewSpan(12, 14)},
		{"composed: collapse over backward voffset keeps the unbounded tail",
			[]deltaOp{voff(-1), collapse(3)}, seq.NewSpan(14, 14),
			seq.Span{Start: 5, End: seq.MaxPos}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := deltaBase(t, positions...)
			for _, op := range tc.ops {
				n = op(t, n)
			}
			got, ok := Affected(n, "b", tc.delta, algebra.EvalRange)
			if !ok {
				t.Fatalf("Affected not computable")
			}
			if got != tc.want {
				t.Errorf("affected = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestAffectedSpanWithoutScan: without a scan a value offset's washout
// side stays open, the conservative answer, while the bounded side is
// still exact.
func TestAffectedSpanWithoutScan(t *testing.T) {
	for _, tc := range []struct {
		op          deltaOp
		delta, want seq.Span
	}{
		{voff(-1), seq.NewSpan(3, 3), seq.Span{Start: 4, End: seq.MaxPos}},
		{voff(2), seq.NewSpan(14, 14), seq.Span{Start: seq.MinPos, End: 13}},
	} {
		n := tc.op(t, deltaBase(t, 1, 2, 3, 4, 5, 8, 14))
		got, ok := AffectedSpan(n, "b", tc.delta)
		if !ok || got != tc.want {
			t.Errorf("voffset(%d): AffectedSpan = %v (known %v), want %v", n.Offset, got, ok, tc.want)
		}
	}
}

// TestAffectedSpanOtherBase: a delta on a base the block does not read
// affects nothing.
func TestAffectedSpanOtherBase(t *testing.T) {
	n := deltaBase(t, 1, 2, 3)
	sel := posoff(1)(t, n)
	got, ok := AffectedSpan(sel, "other", seq.NewSpan(10, 10))
	if !ok || !got.IsEmpty() {
		t.Fatalf("affected = %v ok=%v, want empty", got, ok)
	}
}

// TestAffectedSpanCompose: the halo of a compose is the union of its
// legs' halos, here with the same base read at two different shifts.
func TestAffectedSpanCompose(t *testing.T) {
	l := posoff(2)(t, deltaBase(t, 1, 2, 3))
	r := posoff(-2)(t, deltaBase(t, 1, 2, 3))
	c, err := algebra.Compose(l, r, nil, "l", "r")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := AffectedSpan(c, "b", seq.NewSpan(10, 10))
	if !ok {
		t.Fatal("not computable")
	}
	if want := seq.NewSpan(8, 12); got != want {
		t.Errorf("affected = %v, want %v", got, want)
	}
}
