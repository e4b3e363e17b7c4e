package planlint

import (
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/seq"
)

// ReoptSegment describes one executed segment of a mid-run reoptimized
// evaluation: the span it covered and the plan (not its metered copy) that
// ran it. internal/core hands the reopt layer's report over in this
// neutral form so the verifier depends on neither side.
type ReoptSegment struct {
	Span seq.Span
	Plan exec.Plan
}

// VerifyReopt checks the splice legality of a reoptimized run — the
// restricted plan-switch Thm. 3.1 makes safe:
//
//	reopt/span-cover      the executed segments are contiguous,
//	                      ascending, and their union is exactly the run
//	                      span: the spliced plan covers exactly the
//	                      remaining span at every switch, so the
//	                      concatenated segment outputs reproduce the
//	                      static evaluation (§2.3 restriction).
//	reopt/cache-isolation no operator cache is reachable from two
//	                      different segments' plans: cache contents
//	                      never cross a switch, each segment warms its
//	                      own cache-finite state (Def. 3.2) from the
//	                      history its operators walk themselves.
//	reopt/segment-plan    every spliced plan is itself invariant-clean
//	                      under the physical checks (cache bounds,
//	                      strategy shapes).
//
// An empty-span run with no segments verifies trivially.
func VerifyReopt(full seq.Span, segs []ReoptSegment) []Issue {
	c := &checker{}
	if full.IsEmpty() && len(segs) == 0 {
		return nil
	}
	c.checkReoptCover(full, segs)
	c.checkReoptCacheIsolation(segs)
	for _, s := range segs {
		if sub := VerifyPhysical(s.Plan); len(sub) > 0 {
			c.reportPlan("reopt/segment-plan", "Thm. 3.1", s.Plan,
				"spliced plan for span %s violates %d physical invariant(s)", s.Span, len(sub))
			c.issues = append(c.issues, sub...)
		}
	}
	return c.issues
}

func (c *checker) checkReoptCover(full seq.Span, segs []ReoptSegment) {
	if !full.Bounded() {
		c.issues = append(c.issues, Issue{
			Invariant: "reopt/span-cover", Ref: "Thm. 3.1", Node: "<run>",
			Detail: "monitored run over unbounded span " + full.String(),
		})
		return
	}
	if len(segs) == 0 {
		c.issues = append(c.issues, Issue{
			Invariant: "reopt/span-cover", Ref: "Thm. 3.1", Node: "<run>",
			Detail: "no executed segments for span " + full.String(),
		})
		return
	}
	next := full.Start
	for i, s := range segs {
		if s.Span.IsEmpty() || !s.Span.Bounded() {
			c.reportPlan("reopt/span-cover", "Thm. 3.1", s.Plan,
				"segment %d span %s is empty or unbounded", i, s.Span)
			return
		}
		if s.Span.Start != next {
			c.reportPlan("reopt/span-cover", "Thm. 3.1", s.Plan,
				"segments are not contiguous ascending: segment %d starts at %d, want %d",
				i, s.Span.Start, next)
			return
		}
		next = s.Span.End + 1
	}
	if next != full.End+1 {
		c.reportPlan("reopt/span-cover", "Thm. 3.1", segs[len(segs)-1].Plan,
			"segment union ends at %d, want run span end %d", next-1, full.End)
	}
}

func (c *checker) checkReoptCacheIsolation(segs []ReoptSegment) {
	seen := make(map[*cache.FIFO]int)
	for i, s := range segs {
		var walk func(n exec.Plan)
		walk = func(n exec.Plan) {
			for _, f := range n.Caches() {
				if f == nil {
					continue
				}
				if prev, ok := seen[f]; ok && prev != i {
					c.reportPlan("reopt/cache-isolation", "Def. 3.2", n,
						"operator cache shared between segment %d and segment %d", prev, i)
				} else {
					seen[f] = i
				}
			}
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
		walk(s.Plan)
	}
}

// VerifyCalibrationConstants checks a regressed constant set: every
// constant must be positive and finite — a non-positive page or record
// weight would invert the §4 cost comparisons, and a NaN/Inf poisons
// every estimate built from it.
//
//	reopt/calibration-finite  each named constant is > 0, finite, and
//	                          not NaN.
func VerifyCalibrationConstants(consts map[string]float64) []Issue {
	c := &checker{}
	names := make([]string, 0, len(consts))
	for name := range consts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := consts[name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			c.issues = append(c.issues, Issue{
				Invariant: "reopt/calibration-finite", Ref: "§4.1",
				Node:   "<calibration>",
				Detail: "constant " + name + " is not positive and finite",
			})
		}
	}
	return c.issues
}
