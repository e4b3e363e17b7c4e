package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/testgen"
)

// bigSelectQuery builds an E1-style scan — select(base, close > cut) —
// over n positions, large enough that the cost model favors splitting.
func bigSelectQuery(t *testing.T, n int) (*algebra.Node, seq.Span) {
	t.Helper()
	positions := make([]seq.Pos, 0, n/2)
	for p := seq.Pos(1); p <= seq.Pos(n); p += 2 {
		positions = append(positions, p)
	}
	span := seq.NewSpan(1, seq.Pos(n))
	base, _ := mkStore(t, "s", storage.KindSparse, span, positions...)
	c, _ := expr.NewCol(base.Schema, "close")
	pred, _ := expr.NewBin(expr.OpGt, c, expr.Literal(seq.Float(float64(n)/2)))
	sel, err := algebra.Select(base, pred)
	if err != nil {
		t.Fatal(err)
	}
	return sel, span
}

// TestParallelDecisionFromCostModel: on a large scan the optimizer's
// partition planner must pick K > 1 on its own — the decision comes out
// of the §4 cost model extension, not a forced override.
func TestParallelDecisionFromCostModel(t *testing.T) {
	q, span := bigSelectQuery(t, 16384)
	res := optimize(t, q, span, Options{Parallelism: 4})
	d := res.Parallel
	if !d.Parallel() {
		t.Fatalf("expected a parallel decision, got %s", d)
	}
	if d.Forced {
		t.Fatal("decision must come from the cost model, not ForceK")
	}
	if d.K != 4 {
		t.Errorf("K = %d, want 4 (cost model at maxWorkers=4)", d.K)
	}
	if d.ParallelCost >= d.SerialCost {
		t.Errorf("parallel cost %.2f not below serial %.2f", d.ParallelCost, d.SerialCost)
	}
	if len(d.Partitions) != d.K {
		t.Errorf("%d partitions for K=%d", len(d.Partitions), d.K)
	}
	if !strings.Contains(res.Explain(), "parallel: K=4") {
		t.Errorf("explain missing parallel line:\n%s", res.Explain())
	}
	// Tiny spans and Parallelism=1 must stay serial, with no explain line.
	small := optimize(t, q, seq.NewSpan(1, 100), Options{Parallelism: 4})
	if small.Parallel.Parallel() {
		t.Errorf("100-position span went parallel: %s", small.Parallel)
	}
	if strings.Contains(small.Explain(), "parallel:") {
		t.Errorf("serial explain mentions parallelism:\n%s", small.Explain())
	}
	serial := optimize(t, q, span, Options{Parallelism: 1})
	if serial.Parallel.Parallel() {
		t.Errorf("Parallelism=1 went parallel: %s", serial.Parallel)
	}
}

// TestParallelRunMatchesReference: the partitioned Run through the core
// API returns exactly the reference interpreter's answer.
func TestParallelRunMatchesReference(t *testing.T) {
	q, span := bigSelectQuery(t, 8192)
	res := checkAgainstReference(t, q, span, Options{Parallelism: 4})
	if !res.Parallel.Parallel() {
		t.Fatalf("expected the big scan to partition, got %s", res.Parallel)
	}
	// And agree with the serial engine run on the same physical plan.
	serial, err := exec.Run(res.Plan, res.RunSpan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.EntriesApproxEqual(got.Entries(), serial.Entries()) {
		t.Fatal("parallel Run differs from serial Run on the same plan")
	}
}

// TestParallelAggregateThroughCore: a windowed aggregate partitions with
// a non-empty halo and still matches the reference.
func TestParallelAggregateThroughCore(t *testing.T) {
	positions := make([]seq.Pos, 0, 8192)
	for p := seq.Pos(1); p <= 16384; p += 2 {
		positions = append(positions, p)
	}
	span := seq.NewSpan(1, 16384)
	base, _ := mkStore(t, "s", storage.KindSparse, span, positions...)
	agg, err := algebra.AggCol(base, algebra.AggSum, "close", algebra.Trailing(8), "sum")
	if err != nil {
		t.Fatal(err)
	}
	res := checkAgainstReference(t, agg, span, Options{Parallelism: 4})
	d := res.Parallel
	if !d.Parallel() {
		t.Fatalf("expected the windowed aggregate to partition, got %s", d)
	}
	if d.Halo.Lo > -7 {
		t.Errorf("trailing(8) halo = %s, want lo <= -7", d.Halo)
	}
}

// TestParallelAnalyzePartitions: EXPLAIN ANALYZE on a partitioned run
// reports one block per partition whose rows and pages sum to the whole.
func TestParallelAnalyzePartitions(t *testing.T) {
	q, span := bigSelectQuery(t, 8192)
	res := optimize(t, q, span, Options{Parallelism: 4})
	if !res.Parallel.Parallel() {
		t.Fatalf("expected a parallel decision, got %s", res.Parallel)
	}
	want, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, err := res.RunAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Partitions) != res.Parallel.K {
		t.Fatalf("%d partition records for K=%d", len(a.Partitions), res.Parallel.K)
	}
	rows := int64(0)
	var pages storage.StatsSnapshot
	for i, pm := range a.Partitions {
		if pm.Span != res.Parallel.Partitions[i] {
			t.Errorf("partition %d span %s, decision says %s", i, pm.Span, res.Parallel.Partitions[i])
		}
		rows += pm.Rows
		pages = pages.Add(pm.Pages)
	}
	if rows != int64(want.Count()) {
		t.Errorf("partition rows sum %d, output has %d", rows, want.Count())
	}
	if pages != a.GlobalPages {
		t.Errorf("partition pages %v do not sum to the global movement %v", pages, a.GlobalPages)
	}
	out := a.RenderStable()
	for _, frag := range []string{"parallel K=4", "partition 1/4", "partition 4/4"} {
		if !strings.Contains(out, frag) {
			t.Errorf("analyze output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "time=") {
		t.Errorf("RenderStable leaked wall-clock times:\n%s", out)
	}
}

// TestParallelSpeedup is the acceptance benchmark: an E1-style scan over
// n >= 8000 positions at K=4 must beat the serial run by >= 2x on a
// machine with at least four cores. On smaller machines the workers
// time-share and no speedup is possible, so the test skips.
func TestParallelSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 cores for a speedup bound, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing benchmark")
	}
	q, span := bigSelectQuery(t, 262144)
	serialRes := optimize(t, q, span, Options{Parallelism: 1})
	parRes := optimize(t, q, span, Options{Parallelism: 4})
	if !parRes.Parallel.Parallel() {
		t.Fatalf("expected a parallel decision, got %s", parRes.Parallel)
	}
	best := func(res *Result) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := res.Run(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	// Warm both paths once, then take the best of three.
	best(serialRes)
	serial := best(serialRes)
	par := best(parRes)
	speedup := float64(serial) / float64(par)
	t.Logf("serial %v, K=4 %v, speedup %.2fx", serial, par, speedup)
	if speedup < 2.0 {
		t.Errorf("K=4 speedup %.2fx below the 2x bound (serial %v, parallel %v)", speedup, serial, par)
	}
}

// TestViewAnsweredPlanHalo: a view answering a windowed aggregate
// replaces the operators whose windows make up the partition halo, so
// the view-answered plan's halo is the origin — also when a projection
// restoring the block's column names stands on the view scan and
// evaluates the aggregate's node.
func TestViewAnsweredPlanHalo(t *testing.T) {
	span := seq.NewSpan(1, 4000)
	sum := func(as string) *algebra.Node {
		n, err := algebra.AggCol(wideBase(t, "s"), algebra.AggSum, "close", algebra.Trailing(8), as)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cold := optimize(t, sum("sum"), span, Options{Verify: true, Parallelism: 4})
	if got := cold.Parallel.Halo; got != algebra.Range(-7, 0) {
		t.Fatalf("recomputed trailing(8) halo = %s, want [-7, +0]", got)
	}
	reg := matview.New()
	registerResult(t, reg, "sums", cold)
	warm := optimize(t, sum("total"), span, Options{Verify: true, Parallelism: 4, Views: reg})
	if len(warm.Substitutions) != 1 || !warm.Substitutions[0].Stream {
		t.Fatalf("the view did not answer the stream plan:\n%s", warm.Explain())
	}
	if _, restored := warm.Plan.(*exec.ProjectOp); !restored {
		t.Fatalf("no restoring projection on the view scan:\n%s", warm.Explain())
	}
	if got := warm.Parallel.Halo; got != algebra.Range(0, 0) {
		t.Errorf("view-answered halo = %s, want [+0, +0]\n%s", got, warm.Explain())
	}
}
