package core

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/reopt"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/testgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// skewedComposeQuery builds the deliberately-skewed-estimate workload:
// a compose whose left leg claims a density ≥10× below the truth. With
// the lie the optimizer prices stream-left (few probes of the right
// side) below lockstep; the real record stream then probes the right
// side per record, and mid-run monitoring sees page costs far above the
// pro-rated prediction.
//
// left: sparse store, a record at every other position of [0, n-1]
// (real density 0.5, claimed 0.002). right: dense store over the same
// span.
func skewedComposeQuery(t *testing.T, n int64, claimed float64) (*algebra.Node, storage.Store, storage.Store) {
	t.Helper()
	var les, res []seq.Entry
	for p := int64(0); p < n; p++ {
		if p%2 == 0 {
			les = append(les, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p))}})
		}
		res = append(res, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p) + 0.5)}})
	}
	span := seq.NewSpan(0, n-1)
	lm, err := seq.NewMaterialized(closeSchema, les)
	if err != nil {
		t.Fatal(err)
	}
	lm, err = lm.WithSpan(span)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := storage.FromMaterialized(lm, storage.KindSparse, 8)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := seq.NewMaterialized(closeSchema, res)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := storage.FromMaterialized(rm, storage.KindDense, 8)
	if err != nil {
		t.Fatal(err)
	}
	var leftSeq seq.Sequence = lst
	if claimed > 0 {
		leftSeq = &testgen.SkewedStore{Store: lst, Claimed: claimed}
	}
	left := algebra.Base("skew", leftSeq)
	right := algebra.Base("dense", rst)
	schema, err := algebra.ComposeSchema(left, right, "l", "r")
	if err != nil {
		t.Fatal(err)
	}
	lc, _ := expr.NewCol(schema, "l.close")
	rc, _ := expr.NewCol(schema, "r.close")
	pred, err := expr.NewBin(expr.OpLe, lc, rc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Compose(left, right, pred, "l", "r")
	if err != nil {
		t.Fatal(err)
	}
	return q, lst, rst
}

func pagesRead(sts ...storage.Store) int64 {
	var n int64
	for _, st := range sts {
		s := st.Stats().Snapshot()
		n += s.Pages()
	}
	return n
}

// TestReoptSwitchesOnSkewedEstimates is the skewed-estimate scenario of
// the issue: real density diverges ≥10× from the claimed estimate, the
// static plan picks the wrong compose strategy, and the reopt layer
// must (a) notice and switch mode mid-run, (b) produce exactly the
// static plan's output, and (c) spend no more page reads than the
// never-switched plan.
func TestReoptSwitchesOnSkewedEstimates(t *testing.T) {
	const n = 2000
	span := seq.NewSpan(0, n-1)

	// Static mispriced run.
	qs, lst, rst := skewedComposeQuery(t, n, 0.002)
	static := optimize(t, qs, span, Options{Verify: true})
	if !strings.Contains(static.Explain(), "compose-stream-left") {
		t.Fatalf("skewed estimate must trick the optimizer into stream-left:\n%s", static.Explain())
	}
	before := pagesRead(lst, rst)
	wantOut, err := static.Run()
	if err != nil {
		t.Fatal(err)
	}
	staticPages := pagesRead(lst, rst) - before

	// Oracle: the same data with truthful estimates picks lockstep.
	qo, _, _ := skewedComposeQuery(t, n, 0)
	oracle := optimize(t, qo, span, Options{Verify: true})
	if !strings.Contains(oracle.Explain(), "compose-lockstep") {
		t.Fatalf("truthful estimates should pick lockstep:\n%s", oracle.Explain())
	}
	oracleOut, err := oracle.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Adaptive run over the same skewed estimates.
	qa, lsta, rsta := skewedComposeQuery(t, n, 0.002)
	adaptive := optimize(t, qa, span, Options{Verify: true})
	before = pagesRead(lsta, rsta)
	out, rep, err := adaptive.RunReoptWith(reopt.Config{
		Enabled: true, CheckEvery: 256, Threshold: reopt.DefaultThreshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptivePages := pagesRead(lsta, rsta) - before

	if len(rep.Switches) != 1 {
		t.Fatalf("want exactly one switch (noise splices must be declined), got:\n%s", rep.Render())
	}
	sw := rep.Switches[0]
	if !strings.Contains(sw.OldMode, "compose-stream-left") || !strings.Contains(sw.NewMode, "compose-lockstep") {
		t.Errorf("switch modes = %q -> %q, want stream-left -> lockstep", sw.OldMode, sw.NewMode)
	}
	if !testgen.EntriesApproxEqual(out.Entries(), wantOut.Entries()) {
		t.Errorf("adaptive output differs from static plan output")
	}
	if !testgen.EntriesApproxEqual(out.Entries(), oracleOut.Entries()) {
		t.Errorf("adaptive output differs from oracle output")
	}
	if adaptivePages > staticPages {
		t.Errorf("switched run read %d pages, static plan read %d — the switch must not cost pages",
			adaptivePages, staticPages)
	}
	t.Logf("pages: static=%d adaptive=%d; %s", staticPages, adaptivePages, rep.Render())
}

// TestReoptStaysPutOnAccurateEstimates: with truthful estimates and a
// sane threshold the monitor should keep its hands off the plan.
func TestReoptStaysPutOnAccurateEstimates(t *testing.T) {
	const n = 2000
	span := seq.NewSpan(0, n-1)
	q, _, _ := skewedComposeQuery(t, n, 0)
	res := optimize(t, q, span, Options{Verify: true})
	want, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := res.RunReoptWith(reopt.Config{Enabled: true, CheckEvery: 256, Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Switched() {
		t.Errorf("accurate estimates must not trigger a switch:\n%s", rep.Render())
	}
	if rep.Checkpoints == 0 {
		t.Error("monitored run recorded no checkpoints")
	}
	if !testgen.EntriesApproxEqual(out.Entries(), want.Entries()) {
		t.Error("monitored output differs from plain run")
	}
}

// TestReoptThroughRunHook: Options.Reopt.Enabled routes the ordinary
// Run() entry point through the monitored evaluator.
func TestReoptThroughRunHook(t *testing.T) {
	const n = 1200
	span := seq.NewSpan(0, n-1)
	q, _, _ := skewedComposeQuery(t, n, 0.002)
	res := optimize(t, q, span, Options{
		Verify: true,
		Reopt:  reopt.Config{Enabled: true, CheckEvery: 128, Threshold: reopt.DefaultThreshold},
	})
	out, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	qs, _, _ := skewedComposeQuery(t, n, 0.002)
	static := optimize(t, qs, span, Options{})
	want, err := static.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.EntriesApproxEqual(out.Entries(), want.Entries()) {
		t.Error("Run() under Options.Reopt differs from static run")
	}
}

// TestReoptRunsBatched: turning reopt on keeps the run on the data plane
// Options.Batch selects. Under zero Options the monitored run consumes
// batches and still splices at a batch boundary; under BatchOff it
// drains the root row by row and its report has no batch line.
// Both match the static batch run.
func TestReoptRunsBatched(t *testing.T) {
	const n = 4000
	span := seq.NewSpan(0, n-1)
	qs, _, _ := skewedComposeQuery(t, n, 0.002)
	want, err := optimize(t, qs, span, Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []exec.BatchMode{exec.BatchAuto, exec.BatchOff} {
		q, _, _ := skewedComposeQuery(t, n, 0.002)
		res := optimize(t, q, span, Options{Batch: mode, Reopt: reopt.Config{Enabled: true}})
		a, err := res.RunAnalyze()
		if err != nil {
			t.Fatalf("batch=%v: %v", mode.Enabled(), err)
		}
		render := a.RenderStable()
		if a.Reopt == nil || !a.Reopt.Switched() {
			t.Errorf("batch=%v: monitored run did not splice:\n%s", mode.Enabled(), render)
		}
		if mode.Enabled() {
			if a.Batches == 0 {
				t.Errorf("reopt run consumed no batches under zero Options:\n%s", render)
			}
		} else if a.Batches != 0 || strings.Contains(render, "batch:") {
			t.Errorf("BatchOff reopt run reports batches=%d:\n%s", a.Batches, render)
		}
		if !testgen.EntriesApproxEqual(a.Output.Entries(), want.Entries()) {
			t.Errorf("batch=%v: reopt output differs from the static batch run", mode.Enabled())
		}
	}
}

// TestReoptForcedMidpointSegments: a forced trigger at an adversarial
// midpoint splices exactly there and the segment spans partition the
// run span.
func TestReoptForcedMidpointSegments(t *testing.T) {
	const n = 1000
	span := seq.NewSpan(0, n-1)
	q, _, _ := skewedComposeQuery(t, n, 0)
	res := optimize(t, q, span, Options{Verify: true})
	want, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	mid := seq.Pos(n / 2)
	// Checkpoints never trigger on an infinite threshold; the interval
	// only keeps batches short enough to leave a boundary after mid.
	out, rep, err := res.RunReoptWith(reopt.Config{
		Enabled: true, CheckEvery: 128, Threshold: math.Inf(1), ForceAt: &mid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) != 1 || !rep.Switches[0].Trigger.Forced {
		t.Fatalf("want exactly one forced switch, got:\n%s", rep.Render())
	}
	if at := rep.Switches[0].At; at < mid {
		t.Errorf("forced switch at %d, want ≥ %d", at, mid)
	}
	if len(rep.Segments) != 2 {
		t.Fatalf("want 2 segments, got %d:\n%s", len(rep.Segments), rep.Render())
	}
	if rep.Segments[0].Span.Start != span.Start || rep.Segments[1].Span.End != span.End ||
		rep.Segments[0].Span.End+1 != rep.Segments[1].Span.Start {
		t.Errorf("segments do not partition the span:\n%s", rep.Render())
	}
	if !testgen.EntriesApproxEqual(out.Entries(), want.Entries()) {
		t.Error("forced-splice output differs from static run")
	}
}

// TestReoptParallelTail: TailK forces the spliced remainder onto a
// span-partitioned parallel run; output must still match the static
// plan record for record, and the tail's metrics sum its workers.
func TestReoptParallelTail(t *testing.T) {
	const n = 2000
	span := seq.NewSpan(0, n-1)
	for _, k := range []int{2, 3, 7} {
		q, _, _ := skewedComposeQuery(t, n, 0.002)
		res := optimize(t, q, span, Options{Verify: true})
		want, err := res.Run()
		if err != nil {
			t.Fatal(err)
		}
		out, rep, err := res.RunReoptWith(reopt.Config{
			Enabled: true, CheckEvery: 256, TailK: k,
		})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if !rep.Switched() {
			t.Fatalf("K=%d: no switch", k)
		}
		last := rep.Segments[len(rep.Segments)-1]
		if last.K != k {
			t.Errorf("K=%d: tail ran with K=%d:\n%s", k, last.K, rep.Render())
		}
		if m := last.Metrics; m == nil || m.ScanCalls != int64(k) || m.Rows() != last.Rows {
			t.Errorf("K=%d: tail metrics %+v do not sum %d workers of %d rows", k, m, k, last.Rows)
		}
		if !testgen.EntriesApproxEqual(out.Entries(), want.Entries()) {
			t.Errorf("K=%d: partitioned tail output differs from static run", k)
		}
	}
}

// TestAnalyzeReoptGolden pins the EXPLAIN ANALYZE rendering of a
// monitored run with one forced decision point: the reopt lines must
// name the trigger node, the observed and predicted costs, and the
// old→new mode.
func TestAnalyzeReoptGolden(t *testing.T) {
	const n = 2000
	span := seq.NewSpan(0, n-1)
	q, _, _ := skewedComposeQuery(t, n, 0.002)
	mid := seq.Pos(n / 2)
	res := optimize(t, q, span, Options{
		Verify: true,
		Reopt:  reopt.Config{Enabled: true, CheckEvery: 256, Threshold: math.Inf(1), ForceAt: &mid},
	})
	a, err := res.RunAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	got := a.RenderStable() + "\n"
	path := filepath.Join("testdata", "reopt_analyze.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("explain analyze reopt output drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for _, needle := range []string{"reopt:", "switch at pos=", "trigger=", "observed=", "predicted=", "forced", "->"} {
		if !strings.Contains(got, needle) {
			t.Errorf("rendered analysis missing %q:\n%s", needle, got)
		}
	}
}
