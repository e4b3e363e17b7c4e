package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/seq"
	"repro/internal/storage"
)

// sameBits reports whether two values are the same in type and bits:
// unlike Value.Equal it tells +0.0 from -0.0.
func sameBits(a, b seq.Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case seq.TFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	default:
		return a.Equal(b)
	}
}

// TestExtremesOneAnswerPerWindow runs min and max over sliding
// (trailing, centred, forward) and cumulative windows, over int, float
// and string columns held in memory and in sparse pages, and requires
// the same bits at every position from the row scan, the batch plane
// (4- and 1 024-row batches) and AggFunc.Apply over that window's
// values. The inputs hold empty windows and plateaus of equal values,
// ±0.0 among them, where the earliest extreme must win. Every column
// type must run on the one accumulator, numAcc, in its extreme kind.
func TestExtremesOneAnswerPerWindow(t *testing.T) {
	negZero := math.Copysign(0, -1)
	type input struct {
		name string
		typ  seq.Type
		vals map[seq.Pos]seq.Value
	}
	floats := func(m map[seq.Pos]float64) map[seq.Pos]seq.Value {
		out := make(map[seq.Pos]seq.Value, len(m))
		for p, f := range m {
			out[p] = seq.Float(f)
		}
		return out
	}
	inputs := []input{
		// max(s, close, 3) over {1: +0.0, 2: -0.0} is +0.0 at 2 and 3.
		{"float/signed-zero-pair", seq.TFloat, floats(map[seq.Pos]float64{1: 0, 2: negZero})},
		{"float/signed-zero-plateaus", seq.TFloat, floats(map[seq.Pos]float64{
			1: negZero, 2: 0, 3: negZero, 4: 0, 6: 2.5, 7: 2.5, 8: -1, 9: 2.5,
			// nothing at 10-19: the windows that fit inside are empty
			20: 0, 21: negZero, 22: negZero, 23: 0, 24: -3.25, 25: -3.25, 27: negZero, 28: 0,
		})},
		{"int/plateaus", seq.TInt, map[seq.Pos]seq.Value{
			1: seq.Int(4), 2: seq.Int(4), 3: seq.Int(-7), 4: seq.Int(4), 5: seq.Int(9), 6: seq.Int(9),
			16: seq.Int(-7), 17: seq.Int(-7), 18: seq.Int(0), 19: seq.Int(-7), 22: seq.Int(9),
		}},
		{"string/plateaus", seq.TString, map[seq.Pos]seq.Value{
			1: seq.Str("b"), 2: seq.Str("b"), 3: seq.Str("a"), 4: seq.Str("c"), 5: seq.Str("c"),
			15: seq.Str("a"), 16: seq.Str("a"), 18: seq.Str("bb"), 19: seq.Str("b"),
		}},
	}
	windows := []struct {
		name string
		w    algebra.Window
	}{
		{"trailing3", algebra.Trailing(3)},
		{"centred", algebra.Range(-2, 2)},
		{"forward", algebra.Range(1, 3)},
		{"cumulative", algebra.Window{LoUnbounded: true}},
		{"cumulative+2", algebra.Window{LoUnbounded: true, Hi: 2}},
	}
	outSpan := seq.NewSpan(-2, 33)
	for _, in := range inputs {
		schema := seq.MustSchema(seq.Field{Name: "v", Type: in.typ})
		es := make([]seq.Entry, 0, len(in.vals))
		for p, v := range in.vals {
			es = append(es, seq.Entry{Pos: p, Rec: seq.Record{v}})
		}
		data := seq.MustMaterialized(schema, es)
		sparse, err := storage.FromMaterialized(data, storage.KindSparse, 4)
		if err != nil {
			t.Fatal(err)
		}
		leaves := map[string]seq.Sequence{"memory": data, "sparse": sparse}
		for leafName, src := range leaves {
			for _, fn := range []algebra.AggFunc{algebra.AggMin, algebra.AggMax} {
				for _, win := range windows {
					name := fmt.Sprintf("%s/%s/%s/%s", in.name, leafName, fn, win.name)
					t.Run(name, func(t *testing.T) {
						spec := algebra.AggSpec{Func: fn, Arg: 0, Window: win.w, As: "a"}
						var p Plan
						var err error
						if win.w.LoUnbounded {
							p, err = NewAggCumulative(NewLeaf("s", src, seq.AllSpan), spec, outSpan)
						} else {
							p, err = NewAggSliding(NewLeaf("s", src, seq.AllSpan), spec, outSpan)
						}
						if err != nil {
							t.Fatal(err)
						}
						checkExtremes(t, p, spec, data.Entries(), outSpan)
					})
				}
			}
		}
	}
}

// checkExtremes compares the row scan, both batch sizes and the
// reference over the input entries at every position of span, and
// checks which accumulator the batch plane chose.
func checkExtremes(t *testing.T, p Plan, spec algebra.AggSpec, input []seq.Entry, span seq.Span) {
	t.Helper()
	want := make(map[seq.Pos]seq.Value)
	for pos := span.Start; pos <= span.End; pos++ {
		var window []seq.Value // in position order, as Apply's tie rule needs
		lo, hi := pos+seq.Pos(spec.Window.Lo), pos+seq.Pos(spec.Window.Hi)
		for _, e := range input {
			if (spec.Window.LoUnbounded || e.Pos >= lo) && e.Pos <= hi {
				window = append(window, e.Rec[0])
			}
		}
		v, ok, err := spec.Func.Apply(window)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want[pos] = v
		}
	}
	check := func(plane string, m *seq.Materialized) {
		t.Helper()
		got := m.Entries()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, reference %d", plane, len(got), len(want))
		}
		for _, e := range got {
			if w, ok := want[e.Pos]; !ok || !sameBits(e.Rec[0], w) {
				t.Fatalf("%s: %v at %d, reference %v", plane, e.Rec[0], e.Pos, w)
			}
		}
	}
	rows, err := Run(p, span, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("row scan", rows)
	for _, size := range []int{4, seq.DefaultBatchSize} {
		ctx := seq.NewBatchCtx()
		ctx.Size = size
		batch, err := Run(p, span, ctx)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("batch/size%d", size), batch)
	}
	cur, ok := BatchScanOf(p, span, seq.NewBatchCtx()).(*aggBatchCursor)
	if !ok {
		t.Fatalf("%s runs on no aggregate batch cursor", p.Label())
	}
	defer cur.Close()
	typ := p.Info().Schema.Field(0).Type
	kind := map[seq.Type]numKind{seq.TFloat: numFloatExt, seq.TInt: numIntExt, seq.TString: numStrExt}[typ]
	if cur.num.kind != kind {
		t.Fatalf("%s over a %s column: accumulator kind %d, want %d", spec.Func, typ, cur.num.kind, kind)
	}
}

// haloBase is a base like the append_views workload's: 62 500 positions
// at density 0.8, columns close (a float random walk) and volume (int),
// in sparse or dense pages of storage.DefaultRecordsPerPage records.
func haloBase(tb testing.TB, kind storage.Kind) seq.Sequence {
	tb.Helper()
	schema := seq.MustSchema(
		seq.Field{Name: "close", Type: seq.TFloat},
		seq.Field{Name: "volume", Type: seq.TInt},
	)
	rng := rand.New(rand.NewSource(7))
	es := make([]seq.Entry, 0, 50_000)
	price := 100.0
	for p := seq.Pos(1); p <= haloBaseLen; p++ {
		price += rng.Float64() - 0.5
		if kind == storage.KindDense || rng.Float64() < 0.8 {
			es = append(es, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(price), seq.Int(rng.Int63n(10_000))}})
		}
	}
	st, err := storage.FromMaterialized(seq.MustMaterialized(schema, es), kind, storage.DefaultRecordsPerPage)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// haloBaseLen and haloWindow are the append_views sizes; haloSpan is the
// tail a view's halo re-runs: the last 500 positions of the base and the
// window that reaches past its end.
const (
	haloBaseLen = 62_500
	haloWindow  = 6_144
)

var haloSpan = seq.NewSpan(haloBaseLen-500, haloBaseLen+haloWindow)

// haloAgg is fn over the base's column col in a trailing window of
// haloWindow positions.
func haloAgg(tb testing.TB, base seq.Sequence, fn algebra.AggFunc, col int) Plan {
	tb.Helper()
	spec := algebra.AggSpec{Func: fn, Arg: col, Window: algebra.Trailing(haloWindow), As: "a"}
	p, err := NewAggSliding(NewLeaf("s", base, seq.AllSpan), spec, seq.NewSpan(1, haloBaseLen+haloWindow))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestHaloWindowAllocationBudget pins the bytes one halo run of a
// window aggregate allocates on the batch plane, over 6 144 positions
// of a sparse base and the 6 645-position tail: max(close), where boxing
// every row into a window ring and a deque of seq.Values cost ~1.5 MB
// per run, and sum(volume), whose window ring doubling its way to 8 192
// slots cost ~850 KB.
func TestHaloWindowAllocationBudget(t *testing.T) {
	base := haloBase(t, storage.KindSparse)
	for _, c := range []struct {
		fn     algebra.AggFunc
		col    int
		budget int64
	}{
		{algebra.AggMax, 0, 800 << 10},
		{algebra.AggSum, 1, 760 << 10},
	} {
		t.Run(c.fn.String(), func(t *testing.T) {
			p := haloAgg(t, base, c.fn, c.col)
			if m, err := Run(p, haloSpan, seq.NewBatchCtx()); err != nil {
				t.Fatal(err)
			} else if m.Count() == 0 {
				t.Fatal("the halo run returned no rows")
			}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(p, haloSpan, seq.NewBatchCtx()); err != nil {
						b.Fatal(err)
					}
				}
			})
			if got := res.AllocedBytesPerOp(); got > c.budget {
				t.Fatalf("a halo-sized window %s allocates %d B per run, budget %d B", c.fn, got, c.budget)
			} else {
				t.Logf("%d B and %d allocs per run (budget %d B)", got, res.AllocsPerOp(), c.budget)
			}
		})
	}
}

// TestWideSparseWindowAllocation bounds what a sliding sum reserves for
// its window when neither the width nor the scan says how few values it
// will hold: a 2^24-position window over three records spread across
// 2^24 positions, read at its last 11 positions. Sized by width and scan
// alone, its ring would take 256 MB.
func TestWideSparseWindowAllocation(t *testing.T) {
	const width = 1 << 24
	const budget = 2 << 20
	in := leaf(t, map[seq.Pos]float64{1: 1.5, 2: 2.5, width: 4})
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(width), As: "a"}
	span := seq.NewSpan(width-10, width)
	p, err := NewAggSliding(in, spec, span)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got, err := Run(p, span, seq.NewBatchCtx())
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 11 {
		t.Fatalf("%d rows, want 11", got.Count())
	}
	if b := m1.TotalAlloc - m0.TotalAlloc; b > budget {
		t.Fatalf("a wide window over three records allocated %d B, budget %d B", b, budget)
	} else {
		t.Logf("%d B (budget %d B)", b, budget)
	}
}

// BenchmarkSlidingWindow runs sum, count, min and max over a 6 144-
// position trailing window on the batch plane, over dense and sparse
// page leaves, across the halo-sized tail span.
func BenchmarkSlidingWindow(b *testing.B) {
	for _, kind := range []storage.Kind{storage.KindDense, storage.KindSparse} {
		base := haloBase(b, kind)
		for _, c := range []struct {
			fn  algebra.AggFunc
			col int
		}{{algebra.AggSum, 1}, {algebra.AggCount, -1}, {algebra.AggMin, 0}, {algebra.AggMax, 0}} {
			p := haloAgg(b, base, c.fn, c.col)
			b.Run(fmt.Sprintf("%s/%s", kind, c.fn), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(p, haloSpan, seq.NewBatchCtx()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
