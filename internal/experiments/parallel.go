package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	seqproc "repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/seq"
	"repro/internal/workload"
)

// ParallelPoint is one (experiment, K) measurement of the span-partition
// sweep, as seqbench -parallel prints them (and writes them with
// -parallel-out).
type ParallelPoint struct {
	Experiment string `json:"experiment"`
	Query      string `json:"query"`
	Span       string `json:"span"`
	// K is the worker count of this run; 1 is the serial baseline.
	K int `json:"k"`
	// CostModelK is the worker count the extended §4 cost model picks on
	// its own for this plan (1 = the model prefers serial).
	CostModelK int `json:"cost_model_k"`
	// Forced is true when K was imposed on the planner rather than chosen
	// by the cost model.
	Forced  bool  `json:"forced"`
	NsPerOp int64 `json:"ns_per_op"`
	// SpeedupVsSerial is serial-ns / this-ns (1.0 for the baseline row).
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	Rows            int     `json:"rows"`
	// PagesTotal counts page touches of one run (seq + random); the halo
	// overhead is this row's pages minus the serial row's.
	PagesTotal        int64   `json:"pages_total"`
	HaloPagesOverhead int64   `json:"halo_pages_overhead"`
	Halo              string  `json:"halo"`
	HaloCostEst       float64 `json:"halo_cost_est"`
	// SerialOnlyReason is set (on the baseline row) when the partition
	// planner classifies the plan as not advisable to split.
	SerialOnlyReason string `json:"serial_only_reason,omitempty"`
}

// parallelSetups builds the representative query of each experiment —
// the same query EXPLAIN ANALYZE shows — as (db, query text, span).
var parallelSetups = map[string]func(quick bool) (*seqproc.DB, string, seq.Span, error){
	"e1": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := 4000
		if quick {
			n = 500
		}
		span := seq.NewSpan(1, int64(n)*4)
		quakes, volcanos, err := workload.Monitoring(span, n, n/10, int64(n))
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("quakes", quakes, seqproc.Sparse)
		db.MustCreateSequence("volcanos", volcanos, seqproc.Sparse)
		return db, "project(select(compose(volcanos, prev(quakes)), strength > 7.0), name)", span, nil
	},
	"e2": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		scale := int64(40)
		if quick {
			scale = 4
		}
		db, err := table1DB(scale)
		return db, "project(compose(dec, select(compose(ibm, hp), ibm.close > hp.close) as ih), dec.close)",
			seq.NewSpan(1, 750*scale), err
	},
	"e3": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := int64(50_000)
		d1 := 0.02
		if quick {
			n = 4_000
			d1 = 0.05
		}
		span := seq.NewSpan(1, n)
		left, err := workload.Stock(workload.StockConfig{Name: "left", Span: span, Density: d1, Seed: 11})
		if err != nil {
			return nil, "", span, err
		}
		right, err := workload.Stock(workload.StockConfig{Name: "right", Span: span, Density: 1.0, Seed: 12})
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("l", left, seqproc.Sparse)
		db.MustCreateSequence("r", right, seqproc.Dense)
		return db, "select(compose(l, r), l.close > r.close)", span, nil
	},
	"e4": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := int64(50_000)
		if quick {
			n = 4_000
		}
		span := seq.NewSpan(1, n)
		data, err := workload.Stock(workload.StockConfig{Name: "ibm", Span: span, Density: 1, Seed: 21})
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("ibm", data, seqproc.Dense)
		return db, "sum(ibm, close, 32)", span, nil
	},
	"e5": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := int64(20_000)
		if quick {
			n = 2_000
		}
		span := seq.NewSpan(1, n)
		l, err := workload.Stock(workload.StockConfig{Name: "l", Span: span, Density: 1, Seed: 51})
		if err != nil {
			return nil, "", span, err
		}
		r, err := workload.Stock(workload.StockConfig{Name: "r", Span: span, Density: 1, Seed: 52})
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("l", l, seqproc.Dense)
		db.MustCreateSequence("r", r, seqproc.Dense)
		return db, "prev(select(compose(l, r), l.close > r.close))", span, nil
	},
	"e6": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		span := seq.NewSpan(1, 64)
		db := seqproc.New()
		for _, name := range []string{"a", "b", "c", "d"} {
			data, err := workload.Stock(workload.StockConfig{Name: name, Span: span, Density: 1, Seed: 31})
			if err != nil {
				return nil, "", span, err
			}
			db.MustCreateSequence(name, data, seqproc.Dense)
		}
		return db, "compose(a, compose(b, compose(c, d)))", span, nil
	},
	"e7": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		n := int64(20_000)
		if quick {
			n = 2_000
		}
		span := seq.NewSpan(1, n)
		a, err := workload.Stock(workload.StockConfig{Name: "a", Span: span, Density: 0.9, Seed: 41})
		if err != nil {
			return nil, "", span, err
		}
		b, err := workload.Stock(workload.StockConfig{Name: "b", Span: span, Density: 0.9, Seed: 42})
		if err != nil {
			return nil, "", span, err
		}
		db := seqproc.New()
		db.MustCreateSequence("a", a, seqproc.Sparse)
		db.MustCreateSequence("b", b, seqproc.Sparse)
		return db, "sum(prev(select(compose(a, b), a.close > b.close)), a.close, 16)", span, nil
	},
	"e8": func(quick bool) (*seqproc.DB, string, seq.Span, error) {
		scale := int64(40)
		if quick {
			scale = 4
		}
		db, err := table1DB(scale)
		return db, `project(
		    select(offset(compose(dec, compose(ibm, hp) as ih), -3),
		           ibm.close > hp.close and dec.close > 103.0),
		    dec.close)`, seq.NewSpan(1, 750*scale), err
	},
}

// ParallelSweep measures each experiment's representative query at the
// serial baseline, at forced worker counts, and at the cost model's own
// pick, verifying every partitioned run returns exactly the serial row
// set. maxWorkers <= 0 selects GOMAXPROCS.
func ParallelSweep(ids []string, quick bool, maxWorkers int) ([]ParallelPoint, error) {
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	if len(ids) == 0 {
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
	}
	reps := 3
	if quick {
		reps = 1
	}
	var out []ParallelPoint
	for _, id := range ids {
		setup, ok := parallelSetups[strings.ToLower(id)]
		if !ok {
			return nil, fmt.Errorf("experiments: no parallel sweep for %q", id)
		}
		db, query, span, err := setup(quick)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		points, err := sweepQuery(db, id, query, span, maxWorkers, reps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, points...)
	}
	return out, nil
}

func sweepQuery(db *seqproc.DB, id, query string, span seq.Span, maxWorkers, reps int) ([]ParallelPoint, error) {
	q, err := db.Query(query)
	if err != nil {
		return nil, err
	}
	res, err := core.Optimize(q.Node(), span, core.Options{Parallelism: maxWorkers})
	if err != nil {
		return nil, err
	}
	costK := 1
	if res.Parallel.Parallel() {
		costK = res.Parallel.K
	}
	sc := parallel.Analyze(res.Plan)

	totalPages := func() (int64, error) {
		var sum int64
		for _, name := range db.Sequences() {
			s, err := db.PageStats(name)
			if err != nil {
				return 0, err
			}
			sum += s.Pages()
		}
		return sum, nil
	}
	// measure runs the evaluation reps times, returning the best
	// wall-clock, the row count, and the pages of a single run.
	measure := func(run func() (*seq.Materialized, error)) (int64, int, int64, error) {
		before, err := totalPages()
		if err != nil {
			return 0, 0, 0, err
		}
		var rows int
		best := int64(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			m, err := run()
			if err != nil {
				return 0, 0, 0, err
			}
			if ns := time.Since(start).Nanoseconds(); ns < best {
				best = ns
			}
			rows = m.Count()
		}
		after, err := totalPages()
		if err != nil {
			return 0, 0, 0, err
		}
		return best, rows, (after - before) / int64(reps), nil
	}

	mk := func(k int, forced bool, halo string, haloCost float64) ParallelPoint {
		return ParallelPoint{
			Experiment: id, Query: query, Span: span.String(),
			K: k, CostModelK: costK, Forced: forced,
			Halo: halo, HaloCostEst: haloCost,
		}
	}

	// Serial baseline.
	serialPt := mk(1, false, sc.Halo.String(), sc.HaloCost)
	if !sc.Partitionable {
		serialPt.SerialOnlyReason = sc.Reason
	}
	ns, rows, pages, err := measure(func() (*seq.Materialized, error) {
		return exec.Run(res.Plan, res.RunSpan)
	})
	if err != nil {
		return nil, err
	}
	serialPt.NsPerOp, serialPt.Rows, serialPt.PagesTotal = ns, rows, pages
	serialPt.SpeedupVsSerial = 1.0
	points := []ParallelPoint{serialPt}

	// Forced worker counts plus the cost model's own pick; splitting a
	// serial-only plan is still exact, just not advisable, so those are
	// skipped rather than forced.
	if !sc.Partitionable {
		return points, nil
	}
	ks := []int{2, 4}
	if costK > 1 && costK != 2 && costK != 4 {
		ks = append(ks, costK)
	}
	for _, k := range ks {
		if int64(k) > span.Len() {
			continue
		}
		d := res.Parallel
		forced := false
		if !(costK == k && d.Parallel()) {
			d, err = parallel.ForceK(res.Plan, res.RunSpan, k)
			if err != nil {
				return nil, err
			}
			forced = true
		}
		pt := mk(k, forced, d.Halo.String(), d.HaloCost)
		ns, rows, pages, err := measure(func() (*seq.Materialized, error) {
			return parallel.Run(res.Plan, res.RunSpan, d)
		})
		if err != nil {
			return nil, err
		}
		if rows != serialPt.Rows {
			return nil, fmt.Errorf("K=%d returned %d rows, serial returned %d", k, rows, serialPt.Rows)
		}
		pt.NsPerOp, pt.Rows, pt.PagesTotal = ns, rows, pages
		pt.SpeedupVsSerial = float64(serialPt.NsPerOp) / float64(ns)
		pt.HaloPagesOverhead = pages - serialPt.PagesTotal
		points = append(points, pt)
	}
	return points, nil
}

// RenderParallel formats sweep points as the table seqbench prints next
// to the JSON artifact.
func RenderParallel(points []ParallelPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-4s %-7s %-12s %-9s %-12s %-10s %s\n",
		"exp", "K", "costK", "ns/op", "speedup", "pages", "halo-pg", "note")
	for _, p := range points {
		note := ""
		if p.SerialOnlyReason != "" {
			note = "serial-only: " + p.SerialOnlyReason
		} else if p.K > 1 && !p.Forced {
			note = "cost-model pick"
		}
		fmt.Fprintf(&b, "%-4s %-4d %-7d %-12d %-9.2f %-12d %-10d %s\n",
			p.Experiment, p.K, p.CostModelK, p.NsPerOp, p.SpeedupVsSerial,
			p.PagesTotal, p.HaloPagesOverhead, note)
	}
	return b.String()
}
