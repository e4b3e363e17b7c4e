package experiments

import (
	"strings"
	"testing"
)

// The quick disk benchmark exercises both stages of the full run: the
// layout head-to-head and the cold-trace calibration round.
func TestDiskBenchmarkQuick(t *testing.T) {
	b, err := DiskBenchmark(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Layout) == 0 || b.Calibration == nil {
		t.Fatalf("incomplete artifact: %+v", b)
	}
	for _, p := range b.Layout {
		// A dense page-file probe reads exactly one page; the K-run
		// LSM layout must consult a page per candidate run.
		if p.PageProbePages != 1 {
			t.Errorf("n=%d: page-file probe touched %.2f pages, want 1", p.N, p.PageProbePages)
		}
		if p.ProbeReadAmp <= 1 {
			t.Errorf("n=%d: LSM read amplification %.2f, want > 1", p.N, p.ProbeReadAmp)
		}
		if p.LSMScanPages == 0 || p.PageScanPages == 0 {
			t.Errorf("n=%d: scan pages page=%d lsm=%d", p.N, p.PageScanPages, p.LSMScanPages)
		}
	}
	c := b.Calibration
	if c.Samples < 8 {
		t.Errorf("calibration from %d samples, want >= 8", c.Samples)
	}
	if c.Constants["rand_page"] <= 0 {
		t.Errorf("calibrated rand_page = %v", c.Constants["rand_page"])
	}
	out := RenderDisk(b)
	for _, want := range []string{"layout head-to-head", "read-amp", "calibration"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderDisk missing %q:\n%s", want, out)
		}
	}
}
