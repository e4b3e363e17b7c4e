package planlint_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/planlint"
	"repro/internal/seq"
)

// segmentFixture builds a clean two-segment splice: each segment gets
// its own plan (own operator caches) over the exact remaining span.
func segmentFixture(t *testing.T) (seq.Span, []planlint.ReoptSegment) {
	t.Helper()
	p1, _, _ := aggFixture(t, 4096)
	p2, _, _ := aggFixture(t, 4096)
	full := seq.NewSpan(1, 4096)
	return full, []planlint.ReoptSegment{
		{Span: seq.NewSpan(1, 1500), Plan: p1},
		{Span: seq.NewSpan(1501, 4096), Plan: p2},
	}
}

func TestVerifyReoptClean(t *testing.T) {
	full, segs := segmentFixture(t)
	if issues := planlint.VerifyReopt(full, segs); len(issues) != 0 {
		t.Errorf("clean splice raised %v", planlint.Error(issues))
	}
	// A run that never spliced is a single segment over the whole span.
	p, _, span := aggFixture(t, 4096)
	one := []planlint.ReoptSegment{{Span: span, Plan: p}}
	if issues := planlint.VerifyReopt(span, one); len(issues) != 0 {
		t.Errorf("single segment raised %v", planlint.Error(issues))
	}
	// The empty run verifies trivially.
	if issues := planlint.VerifyReopt(seq.EmptySpan, nil); len(issues) != 0 {
		t.Errorf("empty run raised %v", issues)
	}
}

func TestVerifyReoptSpanCover(t *testing.T) {
	full, segs := segmentFixture(t)

	// Gap between segments: tail starts too late.
	gap := []planlint.ReoptSegment{segs[0], {Span: seq.NewSpan(1600, 4096), Plan: segs[1].Plan}}
	wantInvariant(t, planlint.VerifyReopt(full, gap), "reopt/span-cover", "not contiguous")

	// Overlap: tail re-reads consumed positions.
	overlap := []planlint.ReoptSegment{segs[0], {Span: seq.NewSpan(1400, 4096), Plan: segs[1].Plan}}
	wantInvariant(t, planlint.VerifyReopt(full, overlap), "reopt/span-cover", "not contiguous")

	// Truncated union: the splice dropped the end of the span.
	short := []planlint.ReoptSegment{segs[0], {Span: seq.NewSpan(1501, 4000), Plan: segs[1].Plan}}
	wantInvariant(t, planlint.VerifyReopt(full, short), "reopt/span-cover", "union ends at 4000")

	// No segments at all for a non-empty span.
	wantInvariant(t, planlint.VerifyReopt(full, nil), "reopt/span-cover", "no executed segments")

	// Unbounded monitored span.
	wantInvariant(t, planlint.VerifyReopt(seq.AllSpan, segs), "reopt/span-cover", "unbounded")

	// Empty segment span.
	empty := []planlint.ReoptSegment{{Span: seq.EmptySpan, Plan: segs[0].Plan}, segs[1]}
	wantInvariant(t, planlint.VerifyReopt(full, empty), "reopt/span-cover", "empty or unbounded")
}

func TestVerifyReoptCacheIsolation(t *testing.T) {
	full, segs := segmentFixture(t)
	// Reusing one plan object across segments shares its operator cache:
	// cache contents would cross the switch.
	shared := []planlint.ReoptSegment{
		{Span: segs[0].Span, Plan: segs[0].Plan},
		{Span: segs[1].Span, Plan: segs[0].Plan},
	}
	wantInvariant(t, planlint.VerifyReopt(full, shared), "reopt/cache-isolation", "shared between segment")
}

func TestVerifyReoptSegmentPlan(t *testing.T) {
	full, segs := segmentFixture(t)
	leaf := exec.NewLeaf("a", intBase(t, "a", 0, 1, 2).Seq, seq.NewSpan(0, 2))
	broken := &exec.ValueOffsetNaive{In: leaf, Offset: 0, OutSpan: segs[1].Span}
	bad := []planlint.ReoptSegment{segs[0], {Span: segs[1].Span, Plan: broken}}
	issues := planlint.VerifyReopt(full, bad)
	wantInvariant(t, issues, "reopt/segment-plan", "violates")
	// The wrapped physical issues must ride along for diagnosis.
	if rendered := planlint.Render(issues); !strings.Contains(rendered, "phys/shape") {
		t.Errorf("segment-plan issue lost the underlying physical issue:\n%s", rendered)
	}
}

func TestVerifyCalibrationConstants(t *testing.T) {
	clean := map[string]float64{
		"rand_page": 4.2, "per_record": 0.004, "cache_access": 0.001, "ns_per_unit": 17.0,
	}
	if issues := planlint.VerifyCalibrationConstants(clean); len(issues) != 0 {
		t.Errorf("clean constants raised %v", planlint.Error(issues))
	}
	for name, v := range map[string]float64{
		"zero": 0, "negative": -1, "nan": math.NaN(), "inf": math.Inf(1),
	} {
		bad := map[string]float64{"rand_page": 4.2, name: v}
		wantInvariant(t, planlint.VerifyCalibrationConstants(bad), "reopt/calibration-finite", name)
	}
}
