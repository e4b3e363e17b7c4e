package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of sorted, or 0
// for an empty sample.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tail applies the rule every tail latency in this benchmark is reported
// by: the highest of p99, p95, p90 and p75 that has at least ten samples
// beyond it; the largest sample, as p100, when not even p75 has.
func tail(sorted []float64) (p int, v float64) {
	for _, p := range []int{99, 95, 90, 75} {
		if rank := (len(sorted)*p + 99) / 100; len(sorted)-rank >= 10 {
			return p, sorted[rank-1]
		}
	}
	return 100, percentile(sorted, 100)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0: a share or a per-unit cost with
// nothing to divide by is reported as 0, next to its sample count.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relSpread is |a-b| over their mean, the A/A comparison's distance.
func relSpread(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
