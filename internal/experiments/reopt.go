package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	seqproc "repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/reopt"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/testgen"
)

// ReoptSkewPoint is one size of the skewed-estimate sweep: the same
// data evaluated by the mispriced static plan, by the adaptive
// (mid-run reoptimizing) runner, and by the oracle plan built from
// truthful estimates. seqbench -reopt emits these as BENCH_reopt.json.
type ReoptSkewPoint struct {
	N              int64   `json:"n"`
	ClaimedDensity float64 `json:"claimed_density"`
	RealDensity    float64 `json:"real_density"`
	// StaticMode/OracleMode are the compose strategies the mispriced
	// and truthful optimizations pick; AdaptiveSwitches counts mid-run
	// splices of the adaptive run (expected: 1, static→oracle mode).
	StaticMode       string `json:"static_mode"`
	OracleMode       string `json:"oracle_mode"`
	AdaptiveSwitches int    `json:"adaptive_switches"`
	Rows             int    `json:"rows"`
	StaticNsPerOp    int64  `json:"static_ns_per_op"`
	AdaptiveNsPerOp  int64  `json:"adaptive_ns_per_op"`
	OracleNsPerOp    int64  `json:"oracle_ns_per_op"`
	// OracleMonitoredNsPerOp is the oracle plan run under the same
	// monitoring harness as the adaptive run (instrumentation and
	// checkpoints, no switches) — the apples-to-apples bound on what
	// the adaptive run could possibly achieve.
	OracleMonitoredNsPerOp int64 `json:"oracle_monitored_ns_per_op"`
	StaticPages            int64 `json:"static_pages"`
	AdaptivePages          int64 `json:"adaptive_pages"`
	OraclePages            int64 `json:"oracle_pages"`
	// AdaptiveSpeedupVsStatic is static-ns / adaptive-ns (the adaptive
	// run pays instrumentation, the static run does not).
	AdaptiveSpeedupVsStatic float64 `json:"adaptive_speedup_vs_static"`
	// AdaptiveOverOracleMonitored is adaptive-ns / monitored-oracle-ns
	// (1.0 = the adaptive run matches the oracle exactly).
	AdaptiveOverOracleMonitored float64 `json:"adaptive_over_oracle_monitored"`
}

// ReoptCalibrationPoint is one experiment of the calibration round:
// the optimizer's root cost estimate (in cost units) and the measured
// wall time, under default constants and after calibration.
type ReoptCalibrationPoint struct {
	Experiment            string  `json:"experiment"`
	DefaultPredictedUnits float64 `json:"default_predicted_units"`
	DefaultActualNs       int64   `json:"default_actual_ns"`
	CalPredictedUnits     float64 `json:"calibrated_predicted_units"`
	CalActualNs           int64   `json:"calibrated_actual_ns"`
}

// HeldOut is a held-out calibration record (heldOut): constants
// regressed from the round-1 EXPLAIN ANALYZE traces and the
// predicted-vs-actual error of each constant set on round 2. Errors are
// per-operator — each metrics node's counters priced by the round's
// constants against its measured exclusive time — as the mean relative
// deviation after fitting the best global ns-per-unit scale to each
// set, so the comparison measures how well the *relative* constants
// price the work each operator did, not absolute clock speed or
// cardinality estimation.
type HeldOut struct {
	Samples       int64              `json:"samples"`
	Constants     map[string]float64 `json:"constants"`
	DefaultErr    float64            `json:"default_rel_err"`
	CalibratedErr float64            `json:"calibrated_rel_err"`
	Improved      bool               `json:"improved"`
}

// ReoptCalibration is the self-calibration record over E1–E8, with each
// experiment's root estimate and wall time in both rounds.
type ReoptCalibration struct {
	HeldOut
	Points []ReoptCalibrationPoint `json:"points"`
}

// ReoptBench is the BENCH_reopt.json artifact.
type ReoptBench struct {
	Skew        []ReoptSkewPoint  `json:"skewed_sweep"`
	Calibration *ReoptCalibration `json:"calibration"`
}

// reoptClaimed is the lie: the left leg of the skewed compose claims
// this density while the data's real density is reoptReal (≥10× off).
const (
	reoptClaimed = 0.0002
	reoptReal    = 0.5
)

var reoptCloseSchema = seq.MustSchema(seq.Field{Name: "close", Type: seq.TFloat})

// reoptWindow is the aggregate window width of the right leg: wide
// enough that one probe of the aggregate (a full window walk) costs
// visibly more wall time than one step of its sliding stream form.
const reoptWindow = 64

// skewedCompose builds the skewed-estimate workload: compose(left,
// sum(right) over a trailing window) where left holds a record at
// every other position of [0, n-1] (real density 0.5) but, when lie
// is true, claims density 0.002. The mispriced optimizer streams the
// "sparse" left leg and probes the aggregate per record — each probe
// re-walks the window — while the truth prefers lockstep, which
// streams the aggregate incrementally.
func skewedCompose(n int64, lie bool) (*algebra.Node, []storage.Store, error) {
	var les, res []seq.Entry
	for p := int64(0); p < n; p++ {
		if p%2 == 0 {
			les = append(les, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p))}})
		}
		res = append(res, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p) + 0.5)}})
	}
	span := seq.NewSpan(0, n-1)
	lm, err := seq.NewMaterialized(reoptCloseSchema, les)
	if err != nil {
		return nil, nil, err
	}
	if lm, err = lm.WithSpan(span); err != nil {
		return nil, nil, err
	}
	lst, err := storage.FromMaterialized(lm, storage.KindSparse, 8)
	if err != nil {
		return nil, nil, err
	}
	rm, err := seq.NewMaterialized(reoptCloseSchema, res)
	if err != nil {
		return nil, nil, err
	}
	rst, err := storage.FromMaterialized(rm, storage.KindDense, 8)
	if err != nil {
		return nil, nil, err
	}
	var leftSeq seq.Sequence = lst
	if lie {
		leftSeq = &testgen.SkewedStore{Store: lst, Claimed: reoptClaimed}
	}
	left := algebra.Base("skew", leftSeq)
	right, err := algebra.AggCol(algebra.Base("dense", rst), algebra.AggSum, "close",
		algebra.Window{Lo: -(reoptWindow - 1), Hi: 0}, "wsum")
	if err != nil {
		return nil, nil, err
	}
	schema, err := algebra.ComposeSchema(left, right, "l", "r")
	if err != nil {
		return nil, nil, err
	}
	lc, err := expr.NewCol(schema, "close")
	if err != nil {
		return nil, nil, err
	}
	rc, err := expr.NewCol(schema, "wsum")
	if err != nil {
		return nil, nil, err
	}
	pred, err := expr.NewBin(expr.OpLe, lc, rc)
	if err != nil {
		return nil, nil, err
	}
	q, err := algebra.Compose(left, right, pred, "l", "r")
	if err != nil {
		return nil, nil, err
	}
	return q, []storage.Store{lst, rst}, nil
}

func storePages(sts []storage.Store) int64 {
	var n int64
	for _, st := range sts {
		s := st.Stats().Snapshot()
		n += s.Pages()
	}
	return n
}

// reoptMeasure runs fn reps times and returns the best wall time and
// the per-run page delta across the fixture's stores.
func reoptMeasure(sts []storage.Store, reps int, fn func() (*seq.Materialized, error)) (int64, int64, *seq.Materialized, error) {
	before := storePages(sts)
	best := int64(1<<63 - 1)
	var out *seq.Materialized
	for i := 0; i < reps; i++ {
		start := time.Now()
		m, err := fn()
		if err != nil {
			return 0, 0, nil, err
		}
		if ns := time.Since(start).Nanoseconds(); ns < best {
			best = ns
		}
		out = m
	}
	pages := (storePages(sts) - before) / int64(reps)
	return best, pages, out, nil
}

// reoptConfig is the adaptive runner's sweep configuration: checkpoints
// frequent enough that the mispriced head is a small fraction of the
// span, default divergence threshold.
func reoptConfig() reopt.Config {
	return reopt.Config{Enabled: true, CheckEvery: 256, Threshold: reopt.DefaultThreshold}
}

// ReoptSweep measures the skewed-estimate workload at each size under
// the mispriced static plan, the adaptive runner, and the oracle, and
// cross-checks all three return identical rows.
func ReoptSweep(quick bool) ([]ReoptSkewPoint, error) {
	sizes := []int64{50_000, 200_000}
	reps := 5
	if quick {
		sizes = []int64{4_000}
		reps = 1
	}
	var out []ReoptSkewPoint
	for _, n := range sizes {
		pt, err := reoptSweepOne(n, reps)
		if err != nil {
			return nil, fmt.Errorf("reopt sweep n=%d: %w", n, err)
		}
		out = append(out, *pt)
	}
	return out, nil
}

func reoptSweepOne(n int64, reps int) (*ReoptSkewPoint, error) {
	span := seq.NewSpan(0, n-1)
	pt := &ReoptSkewPoint{N: n, ClaimedDensity: reoptClaimed, RealDensity: reoptReal}

	// Mispriced static plan, unmonitored.
	qs, ssts, err := skewedCompose(n, true)
	if err != nil {
		return nil, err
	}
	static, err := core.Optimize(qs, span, core.Options{})
	if err != nil {
		return nil, err
	}
	pt.StaticMode = reopt.StrategySignature(static.Plan)
	if !strings.Contains(pt.StaticMode, "compose-stream") {
		return nil, fmt.Errorf("skewed estimates no longer trick the optimizer (mode %s); the sweep premise is gone", pt.StaticMode)
	}
	staticNs, staticPages, staticOut, err := reoptMeasure(ssts, reps, static.Run)
	if err != nil {
		return nil, err
	}

	// Adaptive: same lie, monitored run with mid-run replanning.
	qa, asts, err := skewedCompose(n, true)
	if err != nil {
		return nil, err
	}
	adaptive, err := core.Optimize(qa, span, core.Options{})
	if err != nil {
		return nil, err
	}
	var lastReport *reopt.Report
	adaptiveNs, adaptivePages, adaptiveOut, err := reoptMeasure(asts, reps, func() (*seq.Materialized, error) {
		m, rep, err := adaptive.RunReoptWith(reoptConfig())
		lastReport = rep
		return m, err
	})
	if err != nil {
		return nil, err
	}
	pt.AdaptiveSwitches = len(lastReport.Switches)

	// Oracle: truthful estimates, both unmonitored and monitored.
	qo, osts, err := skewedCompose(n, false)
	if err != nil {
		return nil, err
	}
	oracle, err := core.Optimize(qo, span, core.Options{})
	if err != nil {
		return nil, err
	}
	pt.OracleMode = reopt.StrategySignature(oracle.Plan)
	if pt.OracleMode == pt.StaticMode {
		return nil, fmt.Errorf("truthful estimates pick the same mode (%s) as the lie; the sweep premise is gone", pt.OracleMode)
	}
	oracleNs, oraclePages, oracleOut, err := reoptMeasure(osts, reps, oracle.Run)
	if err != nil {
		return nil, err
	}
	oracleMonNs, _, _, err := reoptMeasure(osts, reps, func() (*seq.Materialized, error) {
		m, _, err := oracle.RunReoptWith(reoptConfig())
		return m, err
	})
	if err != nil {
		return nil, err
	}

	if staticOut.Count() != adaptiveOut.Count() || staticOut.Count() != oracleOut.Count() {
		return nil, fmt.Errorf("row mismatch: static %d, adaptive %d, oracle %d",
			staticOut.Count(), adaptiveOut.Count(), oracleOut.Count())
	}
	pt.Rows = staticOut.Count()
	pt.StaticNsPerOp, pt.StaticPages = staticNs, staticPages
	pt.AdaptiveNsPerOp, pt.AdaptivePages = adaptiveNs, adaptivePages
	pt.OracleNsPerOp, pt.OraclePages = oracleNs, oraclePages
	pt.OracleMonitoredNsPerOp = oracleMonNs
	pt.AdaptiveSpeedupVsStatic = float64(staticNs) / float64(adaptiveNs)
	pt.AdaptiveOverOracleMonitored = float64(adaptiveNs) / float64(oracleMonNs)
	return pt, nil
}

// ReoptCalibrationRound runs every experiment's representative query
// through the held-out calibration loop (heldOut): once under the
// default cost constants, then again under the regressed ones. It
// reports the predicted-vs-actual error of both constant sets.
func ReoptCalibrationRound(quick bool) (*ReoptCalibration, error) {
	ids := make([]string, 0, len(setups))
	for id := range setups {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	out := &ReoptCalibration{Points: make([]ReoptCalibrationPoint, len(ids))}
	h, err := heldOut(len(ids), func(i int, w *exec.CostWeights) (*core.Analysis, error) {
		id := ids[i]
		db, query, span, err := setups[id](quick)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		db.SetOptions(seqproc.Options{Params: w})
		q, err := db.Query(query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		a, err := q.RunAnalyze(span)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		p := &out.Points[i]
		p.Experiment = id
		if w == nil {
			p.DefaultPredictedUnits, p.DefaultActualNs = a.Predicted.Stream, a.Elapsed.Nanoseconds()
		} else {
			p.CalPredictedUnits, p.CalActualNs = a.Predicted.Stream, a.Elapsed.Nanoseconds()
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	out.HeldOut = h
	return out, nil
}

// heldOut is the held-out calibration methodology of the reopt and disk
// rounds. run(i, w) runs case i of n under the weights w (nil selects
// the defaults). Round 1 runs every case under the defaults and feeds
// each trace into a fresh reopt.Calibration; round 2, the held-out set,
// runs every case again under the fitted weights. Both constant sets
// are priced against the SAME round-2 traces — the counters and
// exclusive times per node are identical for both, only the weights
// differ — so wall-time jitter cancels out of the comparison and the
// margin reflects the constants alone.
func heldOut(n int, run func(i int, w *exec.CostWeights) (*core.Analysis, error)) (HeldOut, error) {
	var cal reopt.Calibration
	for i := 0; i < n; i++ {
		a, err := run(i, nil)
		if err != nil {
			return HeldOut{}, err
		}
		cal.Observe(a.Root)
	}
	k, ok := cal.Constants()
	if !ok {
		return HeldOut{}, fmt.Errorf("calibration underdetermined after %d samples", cal.Samples())
	}
	fitted, defaults := k.Weights(), exec.DefaultCostWeights()
	var defPred, defAct, calPred, calAct []float64
	for i := 0; i < n; i++ {
		a, err := run(i, &fitted)
		if err != nil {
			return HeldOut{}, err
		}
		nodeFit(a.Root, defaults, &defPred, &defAct)
		nodeFit(a.Root, fitted, &calPred, &calAct)
	}
	h := HeldOut{Samples: k.Samples, Constants: k.Map(),
		DefaultErr: scaledRelErr(defPred, defAct), CalibratedErr: scaledRelErr(calPred, calAct)}
	h.Improved = h.CalibratedErr < h.DefaultErr
	return h, nil
}

// nodeFit prices each metrics node's exclusive counters with the
// round's weights and appends (predicted units, actual exclusive ns)
// pairs — the per-operator predicted-vs-actual data the calibration
// error compares.
func nodeFit(root *exec.NodeMetrics, w exec.CostWeights, pred, act *[]float64) {
	root.Walk(func(n *exec.NodeMetrics, _ int) {
		units := n.OwnCost(w)
		ns := float64(n.ExclusiveTime().Nanoseconds())
		if units == 0 || ns <= 0 {
			return
		}
		*pred = append(*pred, units)
		*act = append(*act, ns)
	})
}

// scaledRelErr fits the least-squares global scale s (ns per cost
// unit) mapping predictions onto actuals and returns the mean relative
// deviation |s·p − a| / a — a scale-free measure of how well the
// constant set prices the workloads relative to each other.
func scaledRelErr(pred, act []float64) float64 {
	var pa, pp float64
	for i := range pred {
		pa += pred[i] * act[i]
		pp += pred[i] * pred[i]
	}
	if pp == 0 {
		return 0
	}
	s := pa / pp
	var sum float64
	for i := range pred {
		if act[i] > 0 {
			sum += math.Abs(s*pred[i]-act[i]) / act[i]
		}
	}
	return sum / float64(len(pred))
}

// ReoptBenchmark runs the full -reopt artifact: the skewed-estimate
// sweep plus the calibration round.
func ReoptBenchmark(quick bool) (*ReoptBench, error) {
	skew, err := ReoptSweep(quick)
	if err != nil {
		return nil, err
	}
	calib, err := ReoptCalibrationRound(quick)
	if err != nil {
		return nil, err
	}
	return &ReoptBench{Skew: skew, Calibration: calib}, nil
}

// RenderReopt formats the artifact as the table seqbench prints next
// to the JSON.
func RenderReopt(b *ReoptBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s %-12s %-12s %-12s %-12s %-9s %-9s %s\n",
		"n", "static-ns", "adaptive-ns", "oracle-ns", "oracleM-ns", "speedup", "vs-orcl", "switches")
	for _, p := range b.Skew {
		fmt.Fprintf(&sb, "%-9d %-12d %-12d %-12d %-12d %-9.2f %-9.2f %d (%s -> %s)\n",
			p.N, p.StaticNsPerOp, p.AdaptiveNsPerOp, p.OracleNsPerOp, p.OracleMonitoredNsPerOp,
			p.AdaptiveSpeedupVsStatic, p.AdaptiveOverOracleMonitored, p.AdaptiveSwitches,
			p.StaticMode, p.OracleMode)
	}
	c := b.Calibration
	fmt.Fprintf(&sb, "calibration: %d samples, rel-err %.3f -> %.3f (improved=%v)\n",
		c.Samples, c.DefaultErr, c.CalibratedErr, c.Improved)
	keys := make([]string, 0, len(c.Constants))
	for k := range c.Constants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-14s %.6g\n", k, c.Constants[k])
	}
	return sb.String()
}
