package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/meta"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/testgen"
)

var closeSchema = seq.MustSchema(seq.Field{Name: "close", Type: seq.TFloat})

// mkStore builds a dense-store-backed base node with records val(p)=p at
// the given positions.
func mkStore(t *testing.T, name string, kind storage.Kind, span seq.Span, positions ...seq.Pos) (*algebra.Node, storage.Store) {
	t.Helper()
	es := make([]seq.Entry, len(positions))
	for i, p := range positions {
		es[i] = seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p))}}
	}
	m := seq.MustMaterialized(closeSchema, es)
	if !span.IsEmpty() {
		var err error
		m, err = m.WithSpan(span)
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := storage.FromMaterialized(m, kind, 8)
	if err != nil {
		t.Fatal(err)
	}
	stats := meta.StatsFromMaterialized(m)
	return algebra.BaseWithStats(name, st, stats), st
}

func optimize(t *testing.T, q *algebra.Node, span seq.Span, opts Options) *Result {
	t.Helper()
	res, err := Optimize(q, span, opts)
	if err != nil {
		t.Fatalf("optimize: %v\n%s", err, q)
	}
	return res
}

// checkAgainstReference optimizes and runs the query, comparing against
// the reference interpreter; returns the result for further inspection.
func checkAgainstReference(t *testing.T, q *algebra.Node, span seq.Span, opts Options) *Result {
	t.Helper()
	res := optimize(t, q, span, opts)
	got, err := res.Run()
	if err != nil {
		t.Fatalf("run: %v\nplan:\n%s", err, res.Explain())
	}
	want, err := algebra.EvalRange(q, span)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !testgen.EntriesApproxEqual(got.Entries(), want) {
		t.Fatalf("plan output differs from reference\nquery:\n%s\nplan:\n%s\ngot  %v\nwant %v",
			q, res.Explain(), got.Entries(), want)
	}
	return res
}

func TestOptimizeSimpleSelect(t *testing.T) {
	base, _ := mkStore(t, "s", storage.KindDense, seq.EmptySpan, 1, 2, 3, 4, 5)
	c, _ := expr.NewCol(base.Schema, "close")
	pred, _ := expr.NewBin(expr.OpGt, c, expr.Literal(seq.Float(2.5)))
	sel, _ := algebra.Select(base, pred)
	res := checkAgainstReference(t, sel, seq.NewSpan(0, 10), Options{})
	if res.Cost.Stream <= 0 {
		t.Error("stream cost must be positive")
	}
	if !strings.Contains(res.Explain(), "select") {
		t.Errorf("plan missing select:\n%s", res.Explain())
	}
}

func TestOptimizeExampleOneOne(t *testing.T) {
	// The volcano/earthquake query, end to end through the optimizer.
	quakeSchema := seq.MustSchema(seq.Field{Name: "strength", Type: seq.TFloat})
	volcSchema := seq.MustSchema(seq.Field{Name: "vname", Type: seq.TString})
	quakes := algebra.Base("earthquakes", seq.MustMaterialized(quakeSchema, []seq.Entry{
		{Pos: 1, Rec: seq.Record{seq.Float(6.0)}},
		{Pos: 4, Rec: seq.Record{seq.Float(7.5)}},
		{Pos: 8, Rec: seq.Record{seq.Float(5.0)}},
	}))
	volcanos := algebra.Base("volcanos", seq.MustMaterialized(volcSchema, []seq.Entry{
		{Pos: 2, Rec: seq.Record{seq.Str("etna")}},
		{Pos: 6, Rec: seq.Record{seq.Str("fuji")}},
		{Pos: 9, Rec: seq.Record{seq.Str("rainier")}},
	}))
	prev, _ := algebra.Previous(quakes)
	schema, _ := algebra.ComposeSchema(volcanos, prev, "v", "e")
	strength, _ := expr.NewCol(schema, "strength")
	pred, _ := expr.NewBin(expr.OpGt, strength, expr.Literal(seq.Float(7.0)))
	joined, _ := algebra.Compose(volcanos, prev, pred, "v", "e")
	q, _ := algebra.ProjectCols(joined, "vname")

	res := checkAgainstReference(t, q, seq.NewSpan(0, 10), Options{})
	out, _ := res.Run()
	if out.Count() != 1 || out.Entries()[0].Rec[0].AsStr() != "fuji" {
		t.Errorf("example 1.1 output = %v", out.Entries())
	}
	// The chosen plan must use Cache-Strategy-B for the Previous.
	if !strings.Contains(res.Explain(), "voffset-cacheB") {
		t.Errorf("expected incremental Previous in plan:\n%s", res.Explain())
	}
}

func TestOptimizeJoinOrderAndStrategies(t *testing.T) {
	// Dense tiny sequence joined with a sparse large one: the optimizer
	// should stream the small side or lock-step, never probe the dense
	// side per record of the sparse side blindly. Mostly we check the
	// result is correct and strategies are reported.
	positions := make([]seq.Pos, 0, 200)
	for p := seq.Pos(1); p <= 200; p++ {
		positions = append(positions, p)
	}
	big, _ := mkStore(t, "big", storage.KindDense, seq.EmptySpan, positions...)
	small, _ := mkStore(t, "small", storage.KindSparse, seq.NewSpan(1, 200), 50, 100, 150)
	schema, _ := algebra.ComposeSchema(small, big, "s", "b")
	sc, _ := expr.NewCol(schema, "s.close")
	bc, _ := expr.NewCol(schema, "b.close")
	pred, _ := expr.NewBin(expr.OpLe, sc, bc)
	q, _ := algebra.Compose(small, big, pred, "s", "b")
	res := checkAgainstReference(t, q, seq.NewSpan(1, 200), Options{})
	if !strings.Contains(res.Explain(), "compose-") {
		t.Errorf("plan missing compose strategy:\n%s", res.Explain())
	}
	if res.Stats.BlocksOptimized != 1 {
		t.Errorf("blocks optimized = %d", res.Stats.BlocksOptimized)
	}
}

func TestOptimizeProbedPlan(t *testing.T) {
	base, _ := mkStore(t, "s", storage.KindDense, seq.EmptySpan, 1, 2, 3, 4, 5)
	sum, _ := algebra.AggCol(base, algebra.AggSum, "close", algebra.Trailing(2), "s2")
	res := optimize(t, sum, seq.NewSpan(1, 6), Options{})
	got, err := res.Probe([]seq.Pos{3, 6, 9})
	if err != nil {
		t.Fatal(err)
	}
	// s2(3) = 2+3 = 5; s2(6) = 5; s2(9) = Null.
	if len(got) != 2 || got[0].Rec[0].AsFloat() != 5 || got[1].Rec[0].AsFloat() != 5 {
		t.Errorf("probed = %v", got)
	}
}

func TestSpanPropagationReducesPages(t *testing.T) {
	// Figure 3 / E2 in miniature: DEC[1,350], IBM[200,500], HP[1,750].
	mk := func(name string, lo, hi seq.Pos) (*algebra.Node, storage.Store) {
		var ps []seq.Pos
		for p := lo; p <= hi; p++ {
			ps = append(ps, p)
		}
		return mkStore(t, name, storage.KindDense, seq.EmptySpan, ps...)
	}
	build := func() (*algebra.Node, []storage.Store) {
		dec, sd := mk("dec", 1, 350)
		ibm, si := mk("ibm", 200, 500)
		hp, sh := mk("hp", 1, 750)
		schema, _ := algebra.ComposeSchema(ibm, hp, "ibm", "hp")
		ic, _ := expr.NewCol(schema, "ibm.close")
		hc, _ := expr.NewCol(schema, "hp.close")
		pred, _ := expr.NewBin(expr.OpGe, ic, hc)
		ih, _ := algebra.Compose(ibm, hp, pred, "ibm", "hp")
		q, _ := algebra.Compose(dec, ih, nil, "dec", "")
		return q, []storage.Store{sd, si, sh}
	}

	totalPages := func(stores []storage.Store) int64 {
		var total int64
		for _, s := range stores {
			total += s.Stats().Snapshot().Pages()
		}
		return total
	}

	// Correctness check on its own instance (the reference interpreter
	// probes the same stores, so it must not share counters with the
	// measured runs).
	q0, _ := build()
	checkAgainstReference(t, q0, seq.NewSpan(1, 750), Options{})

	q1, stores1 := build()
	res := optimize(t, q1, seq.NewSpan(1, 750), Options{})
	if _, err := res.Run(); err != nil {
		t.Fatal(err)
	}
	withSpans := totalPages(stores1)

	q2, stores2 := build()
	res2 := optimize(t, q2, seq.NewSpan(1, 750), Options{DisableSpanPropagation: true})
	if _, err := exec.Run(res2.Plan, seq.NewSpan(1, 750), nil); err != nil {
		t.Fatal(err)
	}
	withoutSpans := totalPages(stores2)

	if withSpans >= withoutSpans {
		t.Errorf("span propagation must reduce pages: with=%d without=%d", withSpans, withoutSpans)
	}
	_ = res
}

func TestPropertyFourOneCounters(t *testing.T) {
	// Property 4.1: joining N sources evaluates sum_{k=1}^{N-1}
	// C(N,k)(N-k) subset extensions = N·2^(N-1) - N, and peak stored
	// plans is bounded by C(N,⌈N/2⌉) + N + O(1).
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		nodes := make([]*algebra.Node, n)
		for i := range nodes {
			nodes[i], _ = mkStore(t, "s", storage.KindDense, seq.EmptySpan, 1, 2, 3)
		}
		q := nodes[0]
		for i := 1; i < n; i++ {
			var err error
			q, err = algebra.Compose(q, nodes[i], nil, "", "")
			if err != nil {
				t.Fatal(err)
			}
		}
		res := optimize(t, q, seq.NewSpan(1, 3), Options{})
		want := int64(0)
		for k := 1; k < n; k++ {
			want += int64(binomial(n, k) * (n - k))
		}
		if res.Stats.JoinPlansEvaluated != want {
			t.Errorf("N=%d: plans evaluated = %d, want %d", n, res.Stats.JoinPlansEvaluated, want)
		}
		// Space: the DP keeps the singletons, the current size-k table
		// and the size-k+1 frontier alive at once; the peak is
		// N + max_k [C(N,k) + C(N,k+1)] = O(C(N, ⌈N/2⌉)).
		bound := n + 2
		for k := 1; k < n; k++ {
			if s := binomial(n, k) + binomial(n, k+1); s+n+2 > bound {
				bound = s + n + 2
			}
		}
		if res.Stats.PeakPlansStored > bound {
			t.Errorf("N=%d: peak plans stored = %d, exceeds bound %d", n, res.Stats.PeakPlansStored, bound)
		}
		if popcount(uint64(1)<<uint(n)-1) != n {
			t.Error("popcount sanity")
		}
	}
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	out := 1
	for i := 0; i < k; i++ {
		out = out * (n - i) / (i + 1)
	}
	return out
}

func TestForceComposeStrategy(t *testing.T) {
	a, _ := mkStore(t, "a", storage.KindDense, seq.EmptySpan, 1, 2, 3)
	b, _ := mkStore(t, "b", storage.KindDense, seq.EmptySpan, 2, 3, 4)
	q, _ := algebra.Compose(a, b, nil, "a", "b")
	for _, s := range []exec.ComposeStrategy{exec.ComposeLockStep, exec.ComposeStreamLeft, exec.ComposeStreamRight} {
		strategy := s
		res := checkAgainstReference(t, q, seq.NewSpan(1, 4), Options{ForceComposeStrategy: &strategy})
		if !strings.Contains(res.Explain(), "compose-"+strategy.String()) {
			t.Errorf("forced %v, plan:\n%s", strategy, res.Explain())
		}
	}
}

func TestForceNaiveStrategies(t *testing.T) {
	base, _ := mkStore(t, "s", storage.KindDense, seq.EmptySpan, 1, 2, 3, 4, 5, 6, 7, 8)
	sum, _ := algebra.AggCol(base, algebra.AggSum, "close", algebra.Trailing(3), "s3")
	res := checkAgainstReference(t, sum, seq.NewSpan(1, 10), Options{ForceNaiveAggregates: true})
	if !strings.Contains(res.Explain(), "agg-naive") {
		t.Errorf("expected naive agg:\n%s", res.Explain())
	}
	res = checkAgainstReference(t, sum, seq.NewSpan(1, 10), Options{DisableSlidingAggregates: true})
	if !strings.Contains(res.Explain(), "agg-cacheA") {
		t.Errorf("expected Cache-Strategy-A agg:\n%s", res.Explain())
	}
	res = checkAgainstReference(t, sum, seq.NewSpan(1, 10), Options{})
	if !strings.Contains(res.Explain(), "agg-sliding") {
		t.Errorf("expected sliding agg by default:\n%s", res.Explain())
	}

	prev, _ := algebra.Previous(base)
	res = checkAgainstReference(t, prev, seq.NewSpan(1, 10), Options{ForceNaiveValueOffsets: true})
	if !strings.Contains(res.Explain(), "voffset-naive") {
		t.Errorf("expected naive voffset:\n%s", res.Explain())
	}
}

func TestOptimizeRejectsUnboundedRun(t *testing.T) {
	base, _ := mkStore(t, "s", storage.KindDense, seq.EmptySpan, 1, 2, 3)
	prev, _ := algebra.Previous(base)
	res := optimize(t, prev, seq.AllSpan, Options{})
	if _, err := res.Run(); err == nil {
		t.Error("unbounded run span must be rejected")
	}
}

func TestOptimizeNilQuery(t *testing.T) {
	if _, err := Optimize(nil, seq.AllSpan, Options{}); err == nil {
		t.Error("nil query must be rejected")
	}
}

// The system-level property test: random queries over random data,
// optimized with various option sets, must match the reference
// interpreter exactly.
func TestOptimizerEquivalenceRandom(t *testing.T) {
	span := seq.NewSpan(-10, 45)
	optionSets := []Options{
		{},
		{DisableRewrites: true},
		{DisableSpanPropagation: true},
		{ForceNaiveAggregates: true, ForceNaiveValueOffsets: true},
		{DisableSlidingAggregates: true},
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, err := testgen.RandomQuery(rng, testgen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if algebra.Divergent(q) {
			if _, err := Optimize(q, span, Options{}); err == nil {
				t.Fatalf("seed %d: divergent query not rejected", seed)
			}
			continue
		}
		want, err := algebra.EvalRange(q, span)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		opts := optionSets[seed%int64(len(optionSets))]
		res, err := Optimize(q, span, opts)
		if err != nil {
			t.Fatalf("seed %d: optimize: %v\n%s", seed, err, q)
		}
		got, err := res.Run()
		if err != nil {
			t.Fatalf("seed %d: run: %v\nquery:\n%s\nplan:\n%s", seed, err, q, res.Explain())
		}
		if !testgen.EntriesApproxEqual(got.Entries(), want) {
			t.Fatalf("seed %d: output differs\nquery:\n%s\nplan:\n%s\ngot  %v\nwant %v",
				seed, q, res.Explain(), got.Entries(), want)
		}
	}
}

// Probed access must agree with the reference too.
func TestOptimizerProbedEquivalenceRandom(t *testing.T) {
	span := seq.NewSpan(-5, 40)
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 10_000))
		q, err := testgen.RandomQuery(rng, testgen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if algebra.Divergent(q) {
			continue
		}
		res, err := Optimize(q, span, Options{})
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		want, err := algebra.EvalRange(q, span)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		wantAt := make(map[seq.Pos]seq.Record, len(want))
		for _, e := range want {
			wantAt[e.Pos] = e.Rec
		}
		positions := []seq.Pos{span.Start, 0, 7, 13, 28, span.End}
		got, err := res.Probe(positions)
		if err != nil {
			t.Fatalf("seed %d: probe: %v\nplan:\n%s", seed, err, exec.Explain(res.ProbedPlan))
		}
		gotAt := make(map[seq.Pos]seq.Record, len(got))
		for _, e := range got {
			gotAt[e.Pos] = e.Rec
		}
		for _, p := range positions {
			if !gotAt[p].Equal(wantAt[p]) {
				t.Fatalf("seed %d: probe(%d) = %v, want %v\nquery:\n%s", seed, p, gotAt[p], wantAt[p], q)
			}
		}
	}
}

func TestSharedNodeRejected(t *testing.T) {
	base, _ := mkStore(t, "s", storage.KindDense, seq.EmptySpan, 1, 2, 3)
	shifted, _ := algebra.PosOffset(base, 1)
	q, _ := algebra.Compose(base, shifted, nil, "a", "b") // base feeds two operators
	_, err := Optimize(q, seq.NewSpan(1, 3), Options{})
	if err == nil || !strings.Contains(err.Error(), "not a tree") {
		t.Errorf("shared node must be rejected, got %v", err)
	}
}

func TestExplainMeta(t *testing.T) {
	base, _ := mkStore(t, "s", storage.KindDense, seq.EmptySpan, 1, 2, 3, 4, 5)
	sum, _ := algebra.AggCol(base, algebra.AggSum, "close", algebra.Trailing(2), "s2")
	res := optimize(t, sum, seq.NewSpan(2, 4), Options{})
	text := res.ExplainMeta()
	for _, want := range []string{"agg", "base(s)", "span=[1, 6]", "access=[2, 4]", "density="} {
		if !strings.Contains(text, want) {
			t.Errorf("ExplainMeta missing %q:\n%s", want, text)
		}
	}
}

// reachablePlans counts the distinct physical nodes of the given plans.
func reachablePlans(roots ...exec.Plan) int {
	seen := make(map[exec.Plan]bool)
	var walk func(p exec.Plan)
	walk = func(p exec.Plan) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, c := range p.Children() {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return len(seen)
}

// TestOptimizeKeepsOnlyChosenPlans: a Result retains estimates for the
// nodes of its two plans and no discarded DP candidate, and stays
// invariant-clean under the full verifier.
func TestOptimizeKeepsOnlyChosenPlans(t *testing.T) {
	defer func(v bool) { VerifyAll = v }(VerifyAll)
	VerifyAll = true
	check := func(label string, q *algebra.Node, span seq.Span) {
		t.Helper()
		res := optimize(t, q, span, Options{})
		if want := reachablePlans(res.Plan, res.ProbedPlan); len(res.PlanCosts) != want {
			t.Errorf("%s: %d cost entries, want the %d nodes of Plan ∪ ProbedPlan", label, len(res.PlanCosts), want)
		}
		if len(res.nodes) > len(res.PlanCosts) {
			t.Errorf("%s: %d node entries for %d plan nodes", label, len(res.nodes), len(res.PlanCosts))
		}
		if err := res.Verify(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	for _, n := range []int{2, 4, 6} {
		q, _ := mkStore(t, "s0", storage.KindDense, seq.EmptySpan, 1, 2, 3)
		for i := 1; i < n; i++ {
			in, _ := mkStore(t, "s", storage.KindSparse, seq.EmptySpan, 1, 3)
			var err error
			if q, err = algebra.Compose(q, in, nil, "", ""); err != nil {
				t.Fatal(err)
			}
		}
		res := optimize(t, q, seq.NewSpan(1, 3), Options{})
		if res.Stats.CandidatesCosted <= int64(len(res.PlanCosts)) && n > 2 {
			t.Errorf("%d-way: %d candidates costed, %d kept: nothing was discarded", n, res.Stats.CandidatesCosted, len(res.PlanCosts))
		}
		check(fmt.Sprintf("%d-way compose", n), q, seq.NewSpan(1, 3))
	}
	for seed := int64(0); seed < 100; seed++ {
		q, err := testgen.RandomQuery(rand.New(rand.NewSource(seed)), testgen.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.Divergent(q) {
			check(fmt.Sprintf("seed %d", seed), q, seq.NewSpan(-10, 45))
		}
	}
}
