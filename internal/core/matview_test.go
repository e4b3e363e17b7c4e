package core

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/testgen"
)

// wideBase builds a dense base with enough pages that recomputing a
// selective filter costs visibly more than scanning a small view.
func wideBase(t *testing.T, name string) *algebra.Node {
	t.Helper()
	positions := make([]seq.Pos, 0, 4000)
	for p := seq.Pos(1); p <= 4000; p++ {
		positions = append(positions, p)
	}
	base, _ := mkStore(t, name, storage.KindDense, seq.EmptySpan, positions...)
	return base
}

func selGt(t *testing.T, in *algebra.Node, threshold float64) *algebra.Node {
	t.Helper()
	c, err := expr.NewCol(in.Schema, "close")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.NewBin(expr.OpGt, c, expr.Literal(seq.Float(threshold)))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.Select(in, pred)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// registerResult runs the optimized query and registers its output as a
// view over the rewritten tree — the shape future queries are matched in.
func registerResult(t *testing.T, reg *matview.Registry, name string, res *Result) *matview.View {
	t.Helper()
	out, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Register(name, res.Rewritten, out, res.RunSpan)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A repeated query is answered from the view: substitution appears in
// EXPLAIN, costs predict the view as the winner, and the output is
// identical record for record.
func TestViewSubstitutionExact(t *testing.T) {
	span := seq.NewSpan(1, 4000)
	reg := matview.New()

	q1 := selGt(t, wideBase(t, "s"), 3900)
	cold := optimize(t, q1, span, Options{Verify: true})
	registerResult(t, reg, "hot", cold)

	q2 := selGt(t, wideBase(t, "s"), 3900)
	warm := optimize(t, q2, span, Options{Verify: true, Views: reg})
	if len(warm.Substitutions) != 1 {
		t.Fatalf("expected 1 substitution, got %d\n%s", len(warm.Substitutions), warm.Explain())
	}
	sub := warm.Substitutions[0]
	if !sub.Stream {
		t.Fatalf("stream mode did not adopt the view:\n%s", warm.Explain())
	}
	if sub.ViewCost >= sub.RecomputeCost {
		t.Fatalf("cost model did not predict the view as winner: view %.2f vs recompute %.2f",
			sub.ViewCost, sub.RecomputeCost)
	}
	if !strings.Contains(warm.Explain(), `matview: select block ← scan "hot"`) {
		t.Fatalf("EXPLAIN does not show the substitution:\n%s", warm.Explain())
	}

	coldOut, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}
	warmOut, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.EntriesApproxEqual(warmOut.Entries(), coldOut.Entries()) {
		t.Fatalf("view-backed run differs from recomputation\nwarm %v\ncold %v",
			warmOut.Entries(), coldOut.Entries())
	}
	if hits := sub.View.Hits(); hits != 1 {
		t.Fatalf("view hits = %d, want 1", hits)
	}
}

// A query with an extra conjunct is answered from the view plus a
// residual filter.
func TestViewSubstitutionResidual(t *testing.T) {
	span := seq.NewSpan(1, 4000)
	reg := matview.New()

	cold := optimize(t, selGt(t, wideBase(t, "s"), 3000), span, Options{Verify: true})
	registerResult(t, reg, "wide", cold)

	q := selGt(t, wideBase(t, "s"), 3000)
	c, err := expr.NewCol(q.Schema, "close")
	if err != nil {
		t.Fatal(err)
	}
	upper, err := expr.NewBin(expr.OpLt, c, expr.Literal(seq.Float(3500)))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := algebra.Select(q, upper)
	if err != nil {
		t.Fatal(err)
	}
	warm := optimize(t, narrow, span, Options{Verify: true, Views: reg})
	var sub *matview.Substitution
	for _, s := range warm.Substitutions {
		if s.Stream {
			sub = s
		}
	}
	if sub == nil {
		t.Fatalf("no stream substitution adopted:\n%s", warm.Explain())
	}
	if len(sub.Residual) != 1 {
		t.Fatalf("want 1 residual conjunct, got %v", sub.Residual)
	}

	warmOut, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.EvalRange(narrow, span)
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.EntriesApproxEqual(warmOut.Entries(), want) {
		t.Fatalf("residual-filtered view run differs from reference\ngot  %v\nwant %v",
			warmOut.Entries(), want)
	}
}

// A view covering only a prefix of the requested range is matched
// partially: the plan concatenates the view scan over the covered prefix
// with a recomputation of the gap, and the output still matches a full
// recomputation record for record.
func TestViewSpanPrefixIsPartialMatch(t *testing.T) {
	reg := matview.New()
	cold := optimize(t, selGt(t, wideBase(t, "s"), 3900), seq.NewSpan(1, 2000), Options{})
	v := registerResult(t, reg, "short", cold)

	need := seq.NewSpan(1, 4000)
	warm := optimize(t, selGt(t, wideBase(t, "s"), 3900), need, Options{Verify: true, Views: reg})
	if len(warm.Substitutions) != 1 {
		t.Fatalf("expected 1 partial substitution, got %d\n%s", len(warm.Substitutions), warm.Explain())
	}
	sub := warm.Substitutions[0]
	if sub.Covered != seq.NewSpan(1, 2000) || sub.Need != need {
		t.Fatalf("substitution covered=%v need=%v, want covered [1, 2000] of [1, 4000]", sub.Covered, sub.Need)
	}
	if !sub.Stream {
		t.Fatalf("stream mode did not adopt the partial match:\n%s", warm.Explain())
	}
	if !strings.Contains(warm.Explain(), "concat(@2000)") {
		t.Fatalf("plan does not splice at the view boundary:\n%s", warm.Explain())
	}
	if v.Hits() == 0 {
		t.Fatal("adopted partial match did not record a hit")
	}

	warmOut, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.EvalRange(selGt(t, wideBase(t, "s"), 3900), need)
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.EntriesApproxEqual(warmOut.Entries(), want) {
		t.Fatalf("partial-match run differs from recomputation\ngot  %v\nwant %v",
			warmOut.Entries(), want)
	}

	// The splice is copied and metered like any other operator: both of
	// its sides appear in the metrics tree, and the pages they attribute
	// are the whole movement of the shared store counters.
	if _, err := exec.ClonePlan(warm.Plan); err != nil {
		t.Fatalf("partial-match plan does not clone: %v", err)
	}
	var concat *exec.Concat
	var find func(p exec.Plan)
	find = func(p exec.Plan) {
		if c, ok := p.(*exec.Concat); ok {
			concat = c
		}
		for _, c := range p.Children() {
			find(c)
		}
	}
	find(warm.Plan)
	stores := exec.PlanStores(warm.Plan)
	var before storage.StatsSnapshot
	for _, st := range stores {
		before = before.Add(st.Stats().Snapshot())
	}
	a, err := warm.RunAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	var after storage.StatsSnapshot
	for _, st := range stores {
		after = after.Add(st.Stats().Snapshot())
	}
	var metered *exec.NodeMetrics
	a.Root.Walk(func(n *exec.NodeMetrics, _ int) {
		if n.Label == concat.Label() {
			metered = n
		}
	})
	if concat == nil || metered == nil || len(metered.Children) != 2 {
		t.Fatalf("concat sides missing from the metrics tree:\n%s", a.RenderStable())
	}
	for i, c := range concat.Children() {
		if side := metered.Children[i]; side.Label != c.Label() || side.ScanCalls == 0 {
			t.Errorf("concat side %d metered as %q with %d scans, plan has %q",
				i, side.Label, side.ScanCalls, c.Label())
		}
	}
	moved := after.Sub(before)
	if total := a.Root.TotalPages(); total != moved || moved.Pages() == 0 {
		t.Errorf("metrics tree attributes %v, shared stores moved %v", total, moved)
	}
}

// A view that does not even cover the start of the requested range can
// serve no prefix; it is not used, and the miss is counted.
func TestViewSpanShortIsMiss(t *testing.T) {
	reg := matview.New()
	cold := optimize(t, selGt(t, wideBase(t, "s"), 3900), seq.NewSpan(100, 2000), Options{})
	v := registerResult(t, reg, "short", cold)

	warm := optimize(t, selGt(t, wideBase(t, "s"), 3900), seq.NewSpan(1, 4000), Options{Verify: true, Views: reg})
	if len(warm.Substitutions) != 0 {
		t.Fatalf("non-prefix view was substituted:\n%s", warm.Explain())
	}
	if v.Misses() == 0 {
		t.Fatal("span-failing match did not record a miss")
	}
}

// EXPLAIN ANALYZE surfaces per-view counters, and the warm run touches
// fewer pages than the cold run.
func TestAnalyzeViewCounters(t *testing.T) {
	span := seq.NewSpan(1, 4000)
	reg := matview.New()
	cold := optimize(t, selGt(t, wideBase(t, "s"), 3900), span, Options{})
	registerResult(t, reg, "hot", cold)

	coldA, err := optimize(t, selGt(t, wideBase(t, "s"), 3900), span, Options{}).RunAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	warm := optimize(t, selGt(t, wideBase(t, "s"), 3900), span, Options{Views: reg})
	warmA, err := warm.RunAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(warmA.Views) != 1 {
		t.Fatalf("analysis has %d view counter rows, want 1", len(warmA.Views))
	}
	vc := warmA.Views[0]
	if vc.Hits != 1 {
		t.Fatalf("view hits = %d, want 1", vc.Hits)
	}
	if vc.Pages.Pages() == 0 {
		t.Fatal("view store pages were not counted")
	}
	if warmA.GlobalPages.Pages() >= coldA.GlobalPages.Pages() {
		t.Fatalf("warm run pages (%d) not below cold run pages (%d)",
			warmA.GlobalPages.Pages(), coldA.GlobalPages.Pages())
	}
	if !strings.Contains(warmA.RenderStable(), `view "hot"`) {
		t.Fatalf("render lacks view counters:\n%s", warmA.RenderStable())
	}
}

// Parallel partitioned runs work unchanged over a view-backed plan: the
// view store forks stats per worker like a base store.
func TestViewWithParallelRun(t *testing.T) {
	span := seq.NewSpan(1, 4000)
	reg := matview.New()
	cold := optimize(t, selGt(t, wideBase(t, "s"), 1000), span, Options{})
	registerResult(t, reg, "big", cold)

	forceK := 4
	warm := optimize(t, selGt(t, wideBase(t, "s"), 1000), span, Options{
		Views: reg, Parallelism: forceK, Verify: true,
	})
	out, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.EvalRange(selGt(t, wideBase(t, "s"), 1000), span)
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.EntriesApproxEqual(out.Entries(), want) {
		t.Fatalf("parallel view-backed run differs from reference")
	}
}
