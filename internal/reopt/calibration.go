package reopt

import (
	"math"
	"sync"

	"repro/internal/exec"
)

// nFeatures is the regression arity: sequential pages, random pages,
// records moved, cache operations — the per-node exclusive counters the
// EXPLAIN ANALYZE layer attributes.
const nFeatures = 4

// features are the regression's unit weights: a node priced with
// features[i] (exec.NodeMetrics.OwnCost) is its i-th counter.
var features = [nFeatures]exec.CostWeights{{SeqPage: 1}, {RandPage: 1}, {PerRecord: 1}, {CacheAccess: 1}}

// minSamples is the observation count below which Constants refuses to
// derive anything (the normal equations are too ill-conditioned to
// trust).
const minSamples = 8

// ridgeLambda is the shrinkage applied to the standardized normal
// equations (unit diagonal), trading a fraction of a percent of bias
// on well-conditioned fits for stability under collinear counters.
const ridgeLambda = 1e-2

// Calibration regresses the cost-model constants from completed runs'
// EXPLAIN ANALYZE traces: each finalized metrics node contributes one
// observation "exclusive wall time ≈ a·seqPages + b·randPages +
// c·records + d·cacheOps", accumulated as normal equations so the store
// is O(1) in space no matter how many runs feed it. The derived
// constants are relative to the sequential-page unit (SeqPage stays 1,
// the paper's §4 convention), and Constants.Weights turns them into the
// planner's exec.CostWeights; NsPerUnit converts predicted cost units
// back to nanoseconds.
//
// All methods are safe for concurrent use: runs observe and queries
// derive under one mutex.
//
// mu is a leaf in the declared lock order: critical sections are pure
// accumulator arithmetic.
//
//seqvet:lockorder leaf reopt.Calibration.mu
type Calibration struct {
	mu  sync.Mutex
	xtx [nFeatures][nFeatures]float64
	xty [nFeatures]float64
	n   int64
}

// Constants are the regressed cost-model weights, relative to one
// sequential page read (SeqPage ≡ 1).
type Constants struct {
	RandPage    float64
	PerRecord   float64
	CacheAccess float64
	// NsPerUnit is the regressed wall time of one cost unit.
	NsPerUnit float64
	// Samples is the observation count behind the fit.
	Samples int64
}

// Weights returns the §4 default weights with the fitted constants in
// place: SeqPage stays the unit, and the weights without a counterpart
// in the observed counters (Pred, ParallelStartup) keep their defaults.
func (k Constants) Weights() exec.CostWeights {
	w := exec.DefaultCostWeights()
	w.RandPage, w.PerRecord, w.CacheAccess = k.RandPage, k.PerRecord, k.CacheAccess
	return w
}

// Map returns the constants keyed by name, the form the planlint
// reopt/calibration-finite invariant checks.
func (k Constants) Map() map[string]float64 {
	return map[string]float64{
		"rand_page":    k.RandPage,
		"per_record":   k.PerRecord,
		"cache_access": k.CacheAccess,
		"ns_per_unit":  k.NsPerUnit,
	}
}

// Observe folds one finalized metrics tree into the regression. Call it
// after Finalize (the exported counters must be populated); nodes with
// no attributable work contribute nothing.
func (c *Calibration) Observe(root *exec.NodeMetrics) {
	type row struct {
		x [nFeatures]float64
		y float64
	}
	var rows []row
	root.Walk(func(n *exec.NodeMetrics, _ int) {
		var x [nFeatures]float64
		for i, w := range features {
			x[i] = n.OwnCost(w)
		}
		if x == ([nFeatures]float64{}) {
			return
		}
		rows = append(rows, row{x: x, y: float64(n.ExclusiveTime().Nanoseconds())})
	})
	if len(rows) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rows {
		for i := 0; i < nFeatures; i++ {
			for j := 0; j < nFeatures; j++ {
				c.xtx[i][j] += r.x[i] * r.x[j]
			}
			c.xty[i] += r.x[i] * r.y
		}
		c.n++
	}
}

// Samples returns the number of per-node observations accumulated.
func (c *Calibration) Samples() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Ready reports whether enough observations exist to derive constants.
func (c *Calibration) Ready() bool { return c.Samples() >= minSamples }

// Constants solves the accumulated normal equations (ridge-regularized
// least squares) and returns the cost constants relative to the
// sequential-page unit, clamped positive and finite. ok is false when
// fewer than minSamples observations exist or the system is degenerate.
func (c *Calibration) Constants() (Constants, bool) {
	c.mu.Lock()
	xtx, xty, n := c.xtx, c.xty, c.n
	c.mu.Unlock()
	if n < minSamples {
		return Constants{}, false
	}
	maxDiag := 0.0
	for i := 0; i < nFeatures; i++ {
		if xtx[i][i] > maxDiag {
			maxDiag = xtx[i][i]
		}
	}
	if maxDiag <= 0 {
		return Constants{}, false
	}
	// The ridge prior is the §4 defaults: directions of the feature space
	// the traces do not identify (collinear or unobserved counters) shrink
	// toward the defaults scaled to the data, not toward zero, so a thin
	// or degenerate sample leaves the cost model where it started instead
	// of blowing it up. Anchor it to the data's clock: the best global
	// ns-per-unit scale s for the defaults (a one-dimensional
	// least-squares fit computable from the accumulated normal equations
	// alone).
	d := exec.DefaultCostWeights()
	prior := [nFeatures]float64{d.SeqPage, d.RandPage, d.PerRecord, d.CacheAccess}
	var xmY, xmXm float64
	for i := 0; i < nFeatures; i++ {
		xmY += prior[i] * xty[i]
		for j := 0; j < nFeatures; j++ {
			xmXm += prior[i] * xtx[i][j] * prior[j]
		}
	}
	if xmXm <= 0 {
		return Constants{}, false
	}
	s := xmY / xmXm
	if !(s > 0) {
		return Constants{}, false
	}
	// Ridge toward the scaled prior with per-feature standardization:
	// directions the traces identify move to the data, collinear or
	// unobserved directions stay at the defaults. Without the prior,
	// collinear counters — records moved tracks sequential pages times
	// the records-per-page factor — let the unregularized solve assign
	// the whole cost to one of them with an arbitrary sign.
	a, b := xtx, xty
	for i := 0; i < nFeatures; i++ {
		lam := ridgeLambda * xtx[i][i]
		if xtx[i][i] <= 0 {
			lam = ridgeLambda * maxDiag
		}
		a[i][i] += lam
		b[i] += lam * s * prior[i]
	}
	beta, ok := solve(a, b)
	if !ok {
		return Constants{}, false
	}
	// A coefficient the fit drives to zero or negative is
	// indistinguishable from free at timer granularity (simulated page
	// reads cost no wall time beyond the records they deliver); snap it
	// back to the scaled default instead of a vanishing floor, so one
	// collapsed coefficient cannot blow up every ratio derived from it.
	maxBeta := maxOf(beta[:])
	if maxBeta <= 0 || math.IsNaN(maxBeta) || math.IsInf(maxBeta, 0) {
		return Constants{}, false
	}
	floor := 1e-9 * maxBeta
	for i := range beta {
		if !(beta[i] > floor) { // also catches NaN
			beta[i] = s * prior[i]
		}
	}
	k := Constants{
		RandPage:    clampRatio(beta[1] / beta[0]),
		PerRecord:   clampRatio(beta[2] / beta[0]),
		CacheAccess: clampRatio(beta[3] / beta[0]),
		NsPerUnit:   beta[0],
		Samples:     n,
	}
	return k, true
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// clampRatio bounds a derived relative constant to a sane positive
// finite range (planlint reopt/calibration-finite rechecks downstream).
func clampRatio(r float64) float64 {
	if math.IsNaN(r) || r < 1e-9 {
		return 1e-9
	}
	if r > 1e9 || math.IsInf(r, 1) {
		return 1e9
	}
	return r
}

// solve performs Gaussian elimination with partial pivoting on the
// (small, symmetric) system A·x = b.
func solve(a [nFeatures][nFeatures]float64, b [nFeatures]float64) ([nFeatures]float64, bool) {
	for col := 0; col < nFeatures; col++ {
		pivot := col
		for r := col + 1; r < nFeatures; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return b, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < nFeatures; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k < nFeatures; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	var x [nFeatures]float64
	for i := nFeatures - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < nFeatures; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, true
}
