package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/seq"
	"repro/internal/storage"
)

// E5 reproduces Figure 5.B: Cache-Strategy-B for value offsets.
//
// The derived sequence #3 = select(compose(IBM, HP), ibm.close >
// hp.close) feeds a Previous operator. The naive algorithm walks
// backward from each position, *recomputing* the derived sequence at
// every probed position, so its cost explodes as matches get rarer ("if
// the close of IBM is usually greater than the close of HP, a large
// number of IBM and HP records may need to be accessed"). The paper's
// example has frequent matches; we sweep the match probability downward
// to expose the blow-up. Cache-Strategy-B instead caches the previous
// output: one scan, one cache slot.
func E5() (*Table, error) { return e5(20_000, []float64{0.5, 0.1, 0.02, 0.005}) }

// E5Quick is E5 at test sizes.
func E5Quick() (*Table, error) { return e5(2_000, []float64{0.5, 0.05}) }

func e5(n int64, matchProbs []float64) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Previous over a filtered join: naive walk vs Cache-Strategy-B",
		Claim: "naive backward probing recomputes the derived input and blows up as matches get rarer; Cache-B stays one scan",
		Header: []string{
			"P(match)", "naive_pages", "naive_ms", "cacheB_pages", "cacheB_ms",
			"page_ratio", "cacheB_peak_slots",
		},
	}
	closeSchema := seq.MustSchema(seq.Field{Name: "close", Type: seq.TFloat})
	span := seq.NewSpan(1, n)
	var firstRatio, lastRatio float64
	for _, p := range matchProbs {
		// l.close ~ U(0,1); r.close = 1-p  =>  P(l.close > r.close) = p.
		rng := rand.New(rand.NewSource(int64(p*1e6) + 7))
		var le, re []seq.Entry
		for pos := span.Start; pos <= span.End; pos++ {
			le = append(le, seq.Entry{Pos: pos, Rec: seq.Record{seq.Float(rng.Float64())}})
			re = append(re, seq.Entry{Pos: pos, Rec: seq.Record{seq.Float(1 - p)}})
		}
		lm := seq.MustMaterialized(closeSchema, le)
		rm := seq.MustMaterialized(closeSchema, re)

		build := func(incremental bool) (int64, time.Duration, int, int, error) {
			ls, err := storage.FromMaterialized(lm, storage.KindDense, 0)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			rs, err := storage.FromMaterialized(rm, storage.KindDense, 0)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			schema, err := closeSchema.Concat(closeSchema, "ibm", "hp")
			if err != nil {
				return 0, 0, 0, 0, err
			}
			lc, err := expr.NewCol(schema, "ibm.close")
			if err != nil {
				return 0, 0, 0, 0, err
			}
			rc, err := expr.NewCol(schema, "hp.close")
			if err != nil {
				return 0, 0, 0, 0, err
			}
			pred, err := expr.NewBin(expr.OpGt, lc, rc)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			join, err := exec.NewCompose(
				exec.NewLeaf("ibm", ls, seq.AllSpan),
				exec.NewLeaf("hp", rs, seq.AllSpan),
				pred, schema, exec.ComposeLockStep)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			outSpan := seq.NewSpan(seq.ClampPos(span.Start+1), span.End)
			var prev exec.Plan
			if incremental {
				prev, err = exec.NewValueOffsetIncremental(join, -1, outSpan)
			} else {
				prev, err = exec.NewValueOffsetNaive(join, -1, outSpan)
			}
			if err != nil {
				return 0, 0, 0, 0, err
			}
			start := time.Now()
			out, err := exec.Run(prev, outSpan, nil)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			elapsed := time.Since(start)
			pages := ls.Stats().Snapshot().Pages() + rs.Stats().Snapshot().Pages()
			return pages, elapsed, out.Count(), exec.PeakCacheResidency(prev), nil
		}

		naivePages, naiveTime, naiveCount, _, err := build(false)
		if err != nil {
			return nil, err
		}
		cachePages, cacheTime, cacheCount, peak, err := build(true)
		if err != nil {
			return nil, err
		}
		if naiveCount != cacheCount {
			return nil, fmt.Errorf("e5: strategies disagree at p=%g: %d vs %d", p, naiveCount, cacheCount)
		}
		r := float64(naivePages) / float64(max64(cachePages, 1))
		if firstRatio == 0 {
			firstRatio = r
		}
		lastRatio = r
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", p),
			itoa(naivePages), ms(naiveTime),
			itoa(cachePages), ms(cacheTime),
			ratio(float64(naivePages), float64(cachePages)),
			itoa(int64(peak)),
		})
	}
	if lastRatio > firstRatio*2 && firstRatio > 1 {
		t.Finding = fmt.Sprintf("naive cost explodes as matches get rarer (%.0fx -> %.0fx more pages than Cache-B, which holds one slot): matches Figure 5.B", firstRatio, lastRatio)
	} else {
		t.Finding = "MISMATCH: naive walk did not blow up relative to Cache-Strategy-B"
	}
	return t, nil
}
