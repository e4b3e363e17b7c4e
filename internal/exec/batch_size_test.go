package exec

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/seq"
	"repro/internal/storage"
)

// scalarOnly hides a sequence's native batch scan, so a leaf over it
// runs through the row-to-batch adapter (seq.BatchCursorFrom).
type scalarOnly struct{ seq.Sequence }

// TestBatchCapacityWithinSpan runs every batch producer over spans of
// 1, 7 and 2 000 positions and requires that no emitted batch was
// allocated for more rows than its span can hold: cap(Pos) is at most
// max(1, min(ctx.Size, span length)). The rows must still equal the
// probed answer.
func TestBatchCapacityWithinSpan(t *testing.T) {
	pairs := make(map[seq.Pos]float64)
	for p := seq.Pos(1); p <= 2100; p++ {
		if p%5 != 0 {
			pairs[p] = float64(p%97) + 0.25
		}
	}
	data := mkSeq(t, pairs)
	outSpan := seq.NewSpan(1, 2100)
	mustPlan := func(p Plan, err error) Plan {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	page := func(kind storage.Kind) Plan {
		st, err := storage.FromMaterialized(data, kind, 64)
		return mustPlan(NewLeaf("s", st, seq.AllSpan), err)
	}
	mem := func() Plan { return NewLeaf("s", data, seq.AllSpan) }
	compose := func(s ComposeStrategy) Plan {
		schema, err := closeSchema.Concat(closeSchema, "l", "r")
		if err != nil {
			t.Fatal(err)
		}
		return mustPlan(NewCompose(mem(), page(storage.KindSparse), gt(t, schema, "l.close", 3), schema, s))
	}
	agg := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(4), As: "a"}
	cum := algebra.AggSpec{Func: algebra.AggMax, Arg: 0, Window: algebra.Window{LoUnbounded: true}, As: "a"}
	cl, _ := expr.NewCol(closeSchema, "close")
	dbl, _ := expr.NewBin(expr.OpMul, cl, expr.Literal(seq.Float(2)))

	producers := []struct {
		name string
		plan Plan
	}{
		{"leaf/memory", mem()},
		{"leaf/dense", page(storage.KindDense)},
		{"leaf/sparse", page(storage.KindSparse)},
		{"adapter", NewLeaf("s", scalarOnly{data}, seq.AllSpan)},
		{"compose/lockstep", compose(ComposeLockStep)},
		{"compose/stream-left", compose(ComposeStreamLeft)},
		{"compose/stream-right", compose(ComposeStreamRight)},
		{"agg/sliding", mustPlan(NewAggSliding(mem(), agg, outSpan))},
		{"agg/cumulative", mustPlan(NewAggCumulative(mem(), cum, outSpan))},
		{"voffset/backward", mustPlan(NewValueOffsetIncremental(mem(), -2, outSpan))},
		{"voffset/forward", mustPlan(NewValueOffsetIncremental(mem(), 3, outSpan))},
		{"project", mustPlan(NewProject(mem(), []ProjExpr{
			{Expr: cl, Name: "c"},      // aliased column
			{Expr: dbl, Name: "twice"}, // computed column
		}))},
	}
	spans := []seq.Span{seq.NewSpan(1001, 1001), seq.NewSpan(1001, 1007), seq.NewSpan(51, 2050)}
	for _, pr := range producers {
		for _, span := range spans {
			for _, size := range []int{seq.DefaultBatchSize, 4} {
				t.Run(fmt.Sprintf("%s/len%d/size%d", pr.name, span.Len(), size), func(t *testing.T) {
					ctx := seq.NewBatchCtx()
					ctx.Size = size
					limit := int(max(1, min(int64(size), span.Len())))
					cur := BatchScanOf(pr.plan, span, ctx)
					var got []seq.Entry
					for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
						if c := cap(b.Pos); c > limit {
							t.Fatalf("batch over %v has cap(Pos) %d, want <= %d", b.Span, c, limit)
						}
						for i := range b.Pos {
							if rec := b.Row(i, ctx.Intern); rec != nil {
								got = append(got, seq.Entry{Pos: b.Pos[i], Rec: rec})
							}
						}
					}
					if err := cur.Err(); err != nil {
						t.Fatal(err)
					}
					cur.Close()
					sameEntries(t, "batch plane", got, probeAnswer(t, pr.plan, span))
				})
			}
		}
	}
}

// TestSmallReadAllocationBudget pins the bytes a small read allocates:
// a 6-way compose of 3-column bases under a select, over 32 positions,
// the shape of the benchmark's plan-bound queries. Batches sized for
// 1 024 rows whatever the span cost ~700 KB per run here.
func TestSmallReadAllocationBudget(t *testing.T) {
	const budget = 150 << 10
	var p Plan
	var schema *seq.Schema
	for k := 0; k < 6; k++ {
		bs := seq.MustSchema(
			seq.Field{Name: fmt.Sprintf("b%d.open", k), Type: seq.TFloat},
			seq.Field{Name: fmt.Sprintf("b%d.close", k), Type: seq.TFloat},
			seq.Field{Name: fmt.Sprintf("b%d.volume", k), Type: seq.TInt},
		)
		es := make([]seq.Entry, 0, 2000)
		for pos := seq.Pos(1); pos <= 2000; pos++ {
			v := float64((int(pos)*(k+3))%101) + 0.5
			es = append(es, seq.Entry{Pos: pos, Rec: seq.Record{seq.Float(v), seq.Float(v + 1), seq.Int(int64(pos))}})
		}
		base := NewLeaf(fmt.Sprintf("b%d", k), seq.MustMaterialized(bs, es), seq.AllSpan)
		if p == nil {
			p, schema = base, bs
			continue
		}
		s, err := schema.Concat(bs, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if p, err = NewCompose(p, base, nil, s, ComposeLockStep); err != nil {
			t.Fatal(err)
		}
		schema = s
	}
	p = NewSelect(p, gt(t, schema, "b0.close", 40))
	span := seq.NewSpan(1001, 1032)
	if m, err := Run(p, span, seq.NewBatchCtx()); err != nil {
		t.Fatal(err)
	} else if m.Count() == 0 {
		t.Fatal("the budget query returned no rows")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(p, span, seq.NewBatchCtx()); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Fatalf("a 32-position 6-way compose allocates %d B per run, budget %d B", got, budget)
	} else {
		t.Logf("%d B and %d allocs per run (budget %d B)", got, res.AllocsPerOp(), budget)
	}
}
