package experiments

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E4 reproduces Figure 5.A: Cache-Strategy-A for windowed aggregates.
//
// A moving sum over the last w positions of a dense stock series is
// evaluated three ways:
//
//	naive:    each output position probes all w window positions
//	          (§4.1.2's naive algorithm; w probes per output)
//	cacheA:   one input scan feeding a FIFO window cache; each output
//	          aggregates over the cache (Figure 5.A; input touched once)
//	sliding:  cacheA plus O(1) incremental accumulator maintenance
//	          (this reproduction's extension, the E4 ablation)
//
// The claim: naive input accesses grow as w·n while cacheA stays at n,
// so the advantage grows linearly with w; sliding additionally removes
// the O(w) recomputation per output.
func E4() (*Table, error) { return e4(40_000, []int64{2, 8, 32, 128, 256}) }

// E4Quick is E4 at test sizes.
func E4Quick() (*Table, error) { return e4(4_000, []int64{4, 32}) }

func e4(n int64, windows []int64) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "moving sum strategies vs window size",
		Claim: "Cache-Strategy-A touches each input record once regardless of w; naive probing grows as w·n",
		Header: []string{
			"w", "naive_recs", "naive_ms", "cacheA_recs", "cacheA_ms",
			"sliding_ms", "rec_ratio", "naive/cacheA_time",
		},
	}
	span := seq.NewSpan(1, n)
	data, err := workload.Stock(workload.StockConfig{Name: "ibm", Span: span, Density: 1, Seed: 21})
	if err != nil {
		return nil, err
	}
	var firstRatio, lastRatio float64
	for _, w := range windows {
		spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 1, Window: algebra.Trailing(w), As: "sum"}
		outSpan := seq.NewSpan(span.Start, seq.ClampPos(span.End+w-1))

		run := func(mk func(in exec.Plan) (exec.Plan, error)) (int64, time.Duration, int, error) {
			store, err := storage.FromMaterialized(data, storage.KindDense, 0)
			if err != nil {
				return 0, 0, 0, err
			}
			leaf := exec.NewLeaf("ibm", store, seq.AllSpan)
			plan, err := mk(leaf)
			if err != nil {
				return 0, 0, 0, err
			}
			start := time.Now()
			out, err := exec.Run(plan, outSpan, nil)
			if err != nil {
				return 0, 0, 0, err
			}
			elapsed := time.Since(start)
			st := store.Stats().Snapshot()
			return st.SeqRecords + st.ProbeRecords, elapsed, out.Count(), nil
		}

		naiveRecs, naiveTime, naiveCount, err := run(func(in exec.Plan) (exec.Plan, error) {
			return exec.NewAggNaive(in, spec, outSpan)
		})
		if err != nil {
			return nil, err
		}
		cacheRecs, cacheTime, cacheCount, err := run(func(in exec.Plan) (exec.Plan, error) {
			return exec.NewAggCached(in, spec, outSpan)
		})
		if err != nil {
			return nil, err
		}
		_, slideTime, slideCount, err := run(func(in exec.Plan) (exec.Plan, error) {
			return exec.NewAggSliding(in, spec, outSpan)
		})
		if err != nil {
			return nil, err
		}
		if naiveCount != cacheCount || cacheCount != slideCount {
			return nil, fmt.Errorf("e4: strategies disagree at w=%d: %d/%d/%d", w, naiveCount, cacheCount, slideCount)
		}
		r := float64(naiveRecs) / float64(max64(cacheRecs, 1))
		if firstRatio == 0 {
			firstRatio = r
		}
		lastRatio = r
		t.Rows = append(t.Rows, []string{
			itoa(w),
			itoa(naiveRecs), ms(naiveTime),
			itoa(cacheRecs), ms(cacheTime),
			ms(slideTime),
			ratio(float64(naiveRecs), float64(cacheRecs)),
			ratio(float64(naiveTime), float64(cacheTime)),
		})
	}
	if lastRatio > firstRatio && firstRatio > 1.5 {
		t.Finding = fmt.Sprintf("cacheA input accesses stay flat while naive grows with w (ratio %.0fx -> %.0fx): matches Figure 5.A", firstRatio, lastRatio)
	} else {
		t.Finding = "MISMATCH: Cache-Strategy-A advantage did not grow with window size"
	}
	return t, nil
}
