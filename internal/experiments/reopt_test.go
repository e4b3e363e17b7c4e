package experiments

import (
	"math"
	"strings"
	"testing"
)

// The reopt sweep's deterministic shape: the mispriced optimizer picks
// a streamed compose, the truthful one picks something else, and the
// adaptive run notices mid-stream and splices at least once while
// producing the same rows (cross-checked inside the sweep) without
// touching more pages than the static plan. Wall-clock speedups are
// reported but not asserted — CI machines are too noisy for that.
func TestReoptSweepQuick(t *testing.T) {
	points, err := ReoptSweep(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1 in quick mode", len(points))
	}
	p := points[0]
	if !strings.Contains(p.StaticMode, "compose-stream") {
		t.Errorf("mispriced mode = %s, want a streamed compose", p.StaticMode)
	}
	if p.OracleMode == p.StaticMode {
		t.Errorf("oracle mode %s matches the mispriced mode; the lie changed nothing", p.OracleMode)
	}
	if p.AdaptiveSwitches == 0 {
		t.Error("adaptive run never switched despite a 2500x density lie")
	}
	if p.Rows == 0 {
		t.Error("sweep produced no rows")
	}
	if p.AdaptivePages > p.StaticPages {
		t.Errorf("adaptive run read more pages (%d) than the mispriced static plan (%d)",
			p.AdaptivePages, p.StaticPages)
	}
}

// The calibration round's deterministic shape: every experiment feeds
// the regression, the derived constants are finite and positive, and
// both rounds produce a measurable per-operator error. Nothing asserts
// that the calibrated error is lower: the recorded full run
// (BENCH_reopt.json) reports improved=false on this engine, and making
// calibration pay is ROADMAP item 10.
func TestReoptCalibrationRoundQuick(t *testing.T) {
	c, err := ReoptCalibrationRound(true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Samples < 8 {
		t.Errorf("only %d samples observed across E1-E8", c.Samples)
	}
	if len(c.Points) != len(setups) {
		t.Errorf("got %d calibration points, want %d", len(c.Points), len(setups))
	}
	for _, name := range []string{"rand_page", "per_record", "cache_access", "ns_per_unit"} {
		v, ok := c.Constants[name]
		if !ok {
			t.Errorf("constant %s missing", name)
			continue
		}
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("constant %s = %v, want finite positive", name, v)
		}
	}
	if !(c.DefaultErr > 0) || !(c.CalibratedErr > 0) {
		t.Errorf("errors not measured: default %v, calibrated %v", c.DefaultErr, c.CalibratedErr)
	}
	b := &ReoptBench{Skew: nil, Calibration: c}
	if table := RenderReopt(b); !strings.Contains(table, "calibration:") {
		t.Errorf("render lacks the calibration line:\n%s", table)
	}
}
