// Benchmarks: one family per reproduced table/figure (DESIGN.md E1–E8).
// Each family benchmarks the competing strategies of its experiment so
// `go test -bench` exposes the paper's claimed shapes as ns/op ratios;
// cmd/seqbench prints the full parameter sweeps as tables.
package seqproc_test

import (
	"fmt"
	"testing"

	seqproc "repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/relational"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// --- E1: Example 1.1 / Figure 1 --------------------------------------

func e1Data(b *testing.B, n int) (*seq.Materialized, *seq.Materialized) {
	b.Helper()
	quakes, volcanos, err := workload.Monitoring(seq.NewSpan(1, int64(n)*4), n, n/10, int64(n))
	if err != nil {
		b.Fatal(err)
	}
	return quakes, volcanos
}

func BenchmarkE1_SequencePlan(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			quakes, volcanos := e1Data(b, n)
			db := seqproc.New()
			db.MustCreateSequence("quakes", quakes, seqproc.Sparse)
			db.MustCreateSequence("volcanos", volcanos, seqproc.Sparse)
			q, err := db.Query("project(select(compose(volcanos, prev(quakes)), strength > 7.0), name)")
			if err != nil {
				b.Fatal(err)
			}
			span := seqproc.NewSpan(1, int64(n)*4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Run(span); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE1_RelationalNested(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			quakes, volcanos := e1Data(b, n)
			qRel, vRel, err := workload.ToRelations(quakes, volcanos)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := relational.VolcanoQueryNested(vRel, qRel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: Table 1 / Figure 3 -------------------------------------------

func benchE2(b *testing.B, disable bool) {
	b.Helper()
	const scale = 20
	ibm, dec, hp, err := workload.Table1(scale)
	if err != nil {
		b.Fatal(err)
	}
	db := seqproc.New()
	db.MustCreateSequence("ibm", ibm, seqproc.Sparse)
	db.MustCreateSequence("dec", dec, seqproc.Sparse)
	db.MustCreateSequence("hp", hp, seqproc.Dense)
	lock := exec.ComposeLockStep
	db.SetOptions(seqproc.Options{DisableSpanPropagation: disable, ForceComposeStrategy: &lock})
	q, err := db.Query("project(compose(dec, select(compose(ibm, hp), ibm.close > hp.close) as ih), dec.close)")
	if err != nil {
		b.Fatal(err)
	}
	span := seqproc.NewSpan(1, 750*scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_WithSpanPropagation(b *testing.B)    { benchE2(b, false) }
func BenchmarkE2_WithoutSpanPropagation(b *testing.B) { benchE2(b, true) }

// --- E3: Figure 4 ------------------------------------------------------

func benchE3(b *testing.B, d1 float64, strategy *exec.ComposeStrategy) {
	b.Helper()
	const n = 50_000
	span := seq.NewSpan(1, n)
	left, err := workload.Stock(workload.StockConfig{Name: "l", Span: span, Density: d1, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	right, err := workload.Stock(workload.StockConfig{Name: "r", Span: span, Density: 1, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	db := seqproc.New()
	db.MustCreateSequence("l", left, seqproc.Sparse)
	db.MustCreateSequence("r", right, seqproc.Dense)
	db.SetOptions(seqproc.Options{ForceComposeStrategy: strategy})
	q, err := db.Query("select(compose(l, r), l.close > r.close)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_SparseLeft(b *testing.B) {
	for _, s := range []exec.ComposeStrategy{exec.ComposeStreamLeft, exec.ComposeStreamRight, exec.ComposeLockStep} {
		s := s
		b.Run(s.String(), func(b *testing.B) { benchE3(b, 0.01, &s) })
	}
	b.Run("optimizer", func(b *testing.B) { benchE3(b, 0.01, nil) })
}

func BenchmarkE3_DenseLeft(b *testing.B) {
	for _, s := range []exec.ComposeStrategy{exec.ComposeStreamLeft, exec.ComposeLockStep} {
		s := s
		b.Run(s.String(), func(b *testing.B) { benchE3(b, 1.0, &s) })
	}
	b.Run("optimizer", func(b *testing.B) { benchE3(b, 1.0, nil) })
}

// --- E4: Figure 5.A ----------------------------------------------------

func benchE4(b *testing.B, w int64, mk func(in exec.Plan, spec algebra.AggSpec, out seq.Span) (exec.Plan, error)) {
	b.Helper()
	const n = 40_000
	span := seq.NewSpan(1, n)
	data, err := workload.Stock(workload.StockConfig{Name: "ibm", Span: span, Density: 1, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	store, err := storage.FromMaterialized(data, storage.KindDense, 0)
	if err != nil {
		b.Fatal(err)
	}
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 1, Window: algebra.Trailing(w), As: "sum"}
	outSpan := seq.NewSpan(span.Start, span.End+w-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := mk(exec.NewLeaf("ibm", store, seq.AllSpan), spec, outSpan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Run(plan, outSpan, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_MovingSum(b *testing.B) {
	for _, w := range []int64{8, 64} {
		b.Run(fmt.Sprintf("naive/w=%d", w), func(b *testing.B) {
			benchE4(b, w, func(in exec.Plan, spec algebra.AggSpec, out seq.Span) (exec.Plan, error) {
				return exec.NewAggNaive(in, spec, out)
			})
		})
		b.Run(fmt.Sprintf("cacheA/w=%d", w), func(b *testing.B) {
			benchE4(b, w, func(in exec.Plan, spec algebra.AggSpec, out seq.Span) (exec.Plan, error) {
				return exec.NewAggCached(in, spec, out)
			})
		})
		b.Run(fmt.Sprintf("sliding/w=%d", w), func(b *testing.B) {
			benchE4(b, w, func(in exec.Plan, spec algebra.AggSpec, out seq.Span) (exec.Plan, error) {
				return exec.NewAggSliding(in, spec, out)
			})
		})
	}
}

// --- E5: Figure 5.B ----------------------------------------------------

func benchE5(b *testing.B, matchProb float64, incremental bool) {
	b.Helper()
	const n = 10_000
	closeSchema := seq.MustSchema(seq.Field{Name: "close", Type: seq.TFloat})
	span := seq.NewSpan(1, n)
	var le, re []seq.Entry
	for pos := span.Start; pos <= span.End; pos++ {
		le = append(le, seq.Entry{Pos: pos, Rec: seq.Record{seq.Float(float64(pos%97) / 97)}})
		re = append(re, seq.Entry{Pos: pos, Rec: seq.Record{seq.Float(1 - matchProb)}})
	}
	ls, err := storage.FromMaterialized(seq.MustMaterialized(closeSchema, le), storage.KindDense, 0)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := storage.FromMaterialized(seq.MustMaterialized(closeSchema, re), storage.KindDense, 0)
	if err != nil {
		b.Fatal(err)
	}
	schema, _ := closeSchema.Concat(closeSchema, "ibm", "hp")
	lc, _ := expr.NewCol(schema, "ibm.close")
	rc, _ := expr.NewCol(schema, "hp.close")
	pred, _ := expr.NewBin(expr.OpGt, lc, rc)
	outSpan := seq.NewSpan(span.Start+1, span.End)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join, err := exec.NewCompose(exec.NewLeaf("ibm", ls, seq.AllSpan), exec.NewLeaf("hp", rs, seq.AllSpan),
			pred, schema, exec.ComposeLockStep)
		if err != nil {
			b.Fatal(err)
		}
		var prev exec.Plan
		if incremental {
			prev, err = exec.NewValueOffsetIncremental(join, -1, outSpan)
		} else {
			prev, err = exec.NewValueOffsetNaive(join, -1, outSpan)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Run(prev, outSpan, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_Previous(b *testing.B) {
	for _, p := range []float64{0.5, 0.05} {
		b.Run(fmt.Sprintf("naive/p=%.2f", p), func(b *testing.B) { benchE5(b, p, false) })
		b.Run(fmt.Sprintf("cacheB/p=%.2f", p), func(b *testing.B) { benchE5(b, p, true) })
	}
}

// --- E6: Figures 6-7 / Property 4.1 -----------------------------------

func BenchmarkE6_Optimize(b *testing.B) {
	data, err := workload.Stock(workload.StockConfig{Name: "s", Span: seq.NewSpan(1, 64), Density: 1, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var q *algebra.Node
			for i := 0; i < n; i++ {
				store, err := storage.FromMaterialized(data, storage.KindDense, 0)
				if err != nil {
					b.Fatal(err)
				}
				leaf := algebra.Base(fmt.Sprintf("s%d", i), store)
				if q == nil {
					q = leaf
					continue
				}
				q, err = algebra.Compose(q, leaf, nil, "", "")
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(q, seq.NewSpan(1, 64), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: Theorem 3.1 ---------------------------------------------------

func BenchmarkE7_StreamPipeline(b *testing.B) {
	for _, n := range []int64{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			span := seq.NewSpan(1, n)
			a, err := workload.Stock(workload.StockConfig{Name: "a", Span: span, Density: 0.9, Seed: 41})
			if err != nil {
				b.Fatal(err)
			}
			c, err := workload.Stock(workload.StockConfig{Name: "b", Span: span, Density: 0.9, Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			db := seqproc.New()
			db.MustCreateSequence("a", a, seqproc.Sparse)
			db.MustCreateSequence("b", c, seqproc.Sparse)
			q, err := db.Query("sum(prev(select(compose(a, b), a.close > b.close)), a.close, 16)")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Run(span); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: §3.1 rewrite ablation ------------------------------------------

func benchE8(b *testing.B, opts seqproc.Options) {
	b.Helper()
	const scale = 10
	ibm, dec, hp, err := workload.Table1(scale)
	if err != nil {
		b.Fatal(err)
	}
	db := seqproc.New()
	db.MustCreateSequence("ibm", ibm, seqproc.Sparse)
	db.MustCreateSequence("dec", dec, seqproc.Sparse)
	db.MustCreateSequence("hp", hp, seqproc.Dense)
	db.SetOptions(opts)
	q, err := db.Query(`project(
	    select(offset(compose(dec, compose(ibm, hp) as ih), -3),
	           ibm.close > hp.close and dec.close > 103.0),
	    dec.close)`)
	if err != nil {
		b.Fatal(err)
	}
	span := seqproc.NewSpan(1, 750*scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_RewritesOn(b *testing.B)  { benchE8(b, seqproc.Options{}) }
func BenchmarkE8_RewritesOff(b *testing.B) { benchE8(b, seqproc.Options{DisableRewrites: true}) }

// --- Micro-benchmarks of the substrates ---------------------------------

func BenchmarkStorageScan(b *testing.B) {
	data, err := workload.Stock(workload.StockConfig{Name: "s", Span: seq.NewSpan(1, 100_000), Density: 1, Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []storage.Kind{storage.KindDense, storage.KindSparse} {
		b.Run(kind.String(), func(b *testing.B) {
			store, err := storage.FromMaterialized(data, kind, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := store.Scan(seq.AllSpan)
				for {
					if _, _, ok := cur.Next(); !ok {
						break
					}
				}
				cur.Close()
			}
		})
	}
}

func BenchmarkStorageProbe(b *testing.B) {
	data, err := workload.Stock(workload.StockConfig{Name: "s", Span: seq.NewSpan(1, 100_000), Density: 1, Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []storage.Kind{storage.KindDense, storage.KindSparse} {
		b.Run(kind.String(), func(b *testing.B) {
			store, err := storage.FromMaterialized(data, kind, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Probe(seq.Pos(i%100_000) + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParser(b *testing.B) {
	db := seqproc.New()
	data, err := workload.Stock(workload.StockConfig{Name: "s", Span: seq.NewSpan(1, 16), Density: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db.MustCreateSequence("ibm", data, seqproc.Sparse)
	db.MustCreateSequence("hp", data, seqproc.Sparse)
	const src = "project(select(compose(ibm, hp), ibm.close > hp.close and ibm.volume > 100), ibm.close)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions: ordering domains, groupings, trigger mode --------------

func BenchmarkDomainCollapse(b *testing.B) {
	const n = 100_000
	data, err := workload.Stock(workload.StockConfig{Name: "d", Span: seq.NewSpan(1, n), Density: 1, Seed: 61})
	if err != nil {
		b.Fatal(err)
	}
	db := seqproc.New()
	db.MustCreateSequence("daily", data, seqproc.Dense)
	q, err := db.Query("collapse(daily, avg(close), 7)")
	if err != nil {
		b.Fatal(err)
	}
	span := seqproc.NewSpan(0, n/7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDomainExpandRoundTrip(b *testing.B) {
	const n = 70_000
	data, err := workload.Stock(workload.StockConfig{Name: "d", Span: seq.NewSpan(1, n), Density: 1, Seed: 62})
	if err != nil {
		b.Fatal(err)
	}
	db := seqproc.New()
	db.MustCreateSequence("daily", data, seqproc.Dense)
	q, err := db.Query("select(compose(daily as d, expand(collapse(daily, avg(close), 7), 7) as w), d.close > w.avg)")
	if err != nil {
		b.Fatal(err)
	}
	span := seqproc.NewSpan(1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonitorPoll(b *testing.B) {
	schema := seqproc.MustSchema(seqproc.Field{Name: "v", Type: seqproc.TFloat})
	empty, err := seqproc.NewData(schema, nil)
	if err != nil {
		b.Fatal(err)
	}
	db := seqproc.New()
	db.MustCreateSequence("s", empty, seqproc.Sparse)
	mon, err := db.Monitor("select(avg(s, v, 4), avg > 0.9)", 0)
	if err != nil {
		b.Fatal(err)
	}
	pos := seqproc.Pos(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One arriving record plus one poll: the per-item trigger cost.
		pos++
		if err := db.Append("s", pos, seqproc.Record{seqproc.Float(float64(i%100) / 100)}); err != nil {
			b.Fatal(err)
		}
		if _, err := mon.Poll(pos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerPipeline(b *testing.B) {
	// The fixed cost of Steps 1-6 on a moderately complex query.
	db := seqproc.New()
	ibm, dec, hp, err := workload.Table1(1)
	if err != nil {
		b.Fatal(err)
	}
	db.MustCreateSequence("ibm", ibm, seqproc.Sparse)
	db.MustCreateSequence("dec", dec, seqproc.Sparse)
	db.MustCreateSequence("hp", hp, seqproc.Dense)
	q, err := db.Query(`project(select(compose(dec, compose(ibm, hp) as ih),
	    ibm.close > hp.close and dec.close > 100.0), dec.close)`)
	if err != nil {
		b.Fatal(err)
	}
	span := seqproc.NewSpan(1, 750)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.EstimatedCost(span); err != nil {
			b.Fatal(err)
		}
	}
}
