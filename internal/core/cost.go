// Package core implements the paper's primary contribution: the
// cost-based optimization and evaluation framework of §4. It wires the
// other subsystems together into the six-step pipeline —
//
//	Step 1  query specification (an algebra tree + requested range)
//	Step 2  meta-information propagation (internal/meta)
//	Step 3  query transformations (internal/rewrite)
//	Step 4  identification of query blocks (rewrite.ExtractJoinBlock)
//	Step 5  block-wise plan generation (the Selinger-style DP below)
//	Step 6  plan selection (cheapest stream-access plan at the Start
//	        operator)
//
// — and produces executable physical plans (internal/exec) with cost
// estimates, strategy choices (access modes, join strategies, cache
// strategies) and optimizer statistics (Property 4.1 counters).
package core

import "math"

// Cost is the pair of access-mode costs the optimizer tracks for every
// candidate (§4.1: "plan generation ... provides evaluation plans and
// cost estimates for the output sequence of the block accessed in both
// stream and probed modes").
type Cost struct {
	// Stream is the total cost of one full stream pass over the
	// candidate's access span.
	Stream float64
	// ProbePer is the expected cost of one probed access.
	ProbePer float64
}

// ProbeAll is the §4.1.1 total probed cost: the per-probe cost times the
// number of positions in the (bounded) span.
func (c Cost) ProbeAll(spanLen int64) float64 {
	if spanLen <= 0 {
		return 0
	}
	return c.ProbePer * float64(spanLen)
}

// finite guards cost arithmetic against unbounded spans.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat64 / 1e6
	}
	return x
}
