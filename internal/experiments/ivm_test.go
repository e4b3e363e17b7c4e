package experiments

import (
	"strings"
	"testing"
)

// TestIVMRunCell drives one small benchmark cell in each mode and checks
// the accounting: incremental mode must stitch every (append, view)
// pair — the windows are sized so every append lands inside every view's
// halo — and invalidate mode must do no maintenance at all. Result
// correctness is asserted inside ivmRun (maintained view vs fresh
// recomputation).
func TestIVMRunCell(t *testing.T) {
	const n, nviews, rounds, perRound = 800, 3, 2, 3
	incr, err := ivmRun(n, nviews, rounds, perRound, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := nviews * rounds * perRound; incr.Stitches != want {
		t.Errorf("incremental stitches = %d, want %d (shrink %d inval %d noop %d)",
			incr.Stitches, want, incr.Shrinks, incr.Invalidates, incr.Noops)
	}
	if incr.Invalidates != 0 || incr.Shrinks != 0 {
		t.Errorf("incremental mode degraded: %d invalidates, %d shrinks", incr.Invalidates, incr.Shrinks)
	}
	inval, err := ivmRun(n, nviews, rounds, perRound, false)
	if err != nil {
		t.Fatal(err)
	}
	if inval.Stitches+inval.Shrinks+inval.Invalidates+inval.Noops != 0 {
		t.Errorf("invalidate mode reported maintenance actions: %+v", inval)
	}
	if incr.Appends != rounds*perRound || inval.Appends != rounds*perRound {
		t.Errorf("append counts = %d/%d, want %d", incr.Appends, inval.Appends, rounds*perRound)
	}

	// The quick seqbench -ivm run: an (invalidate, incremental) pair per
	// view count, with the same exact stitch accounting, rendered as a
	// header plus one line per point.
	points, err := IVMBenchmark(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(ivmViewCounts) {
		t.Fatalf("got %d points, want %d", len(points), 2*len(ivmViewCounts))
	}
	for i := 0; i < len(points); i += 2 {
		inval, incr := points[i], points[i+1]
		if inval.Mode != "invalidate" || incr.Mode != "incremental" || inval.Views != incr.Views {
			t.Fatalf("points not paired per view count: %+v / %+v", inval, incr)
		}
		if incr.Stitches != incr.Views*incr.Appends {
			t.Errorf("%d views: %d stitches, want %d", incr.Views, incr.Stitches, incr.Views*incr.Appends)
		}
		if incr.SpeedupEndToEnd <= 0 {
			t.Errorf("%d views: no end-to-end speedup computed", incr.Views)
		}
	}
	table := RenderIVM(points)
	if lines := strings.Count(table, "\n"); lines != len(points)+1 {
		t.Errorf("RenderIVM printed %d lines, want %d:\n%s", lines, len(points)+1, table)
	}
}

func BenchmarkIVMCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ivmRun(4000, 10, 3, 5, true); err != nil {
			b.Fatal(err)
		}
	}
}
