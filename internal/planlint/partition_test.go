package planlint_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/planlint"
	"repro/internal/seq"
	"repro/internal/storage"
)

// aggFixture builds trailing-sum over a sparse paged store — a
// partitionable plan with a genuine non-empty halo — with the lookup of
// the algebra nodes its operators evaluate.
func aggFixture(t *testing.T, n int) (exec.Plan, func(exec.Plan) *algebra.Node, seq.Span) {
	t.Helper()
	schema := intSchema(t, "v")
	span := seq.NewSpan(1, seq.Pos(n))
	entries := make([]seq.Entry, 0, n/2)
	for p := seq.Pos(1); p <= seq.Pos(n); p += 2 {
		entries = append(entries, seq.Entry{Pos: p, Rec: seq.Record{seq.Int(int64(p))}})
	}
	m, err := seq.MustMaterialized(schema, entries).WithSpan(span)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.FromMaterialized(m, storage.KindSparse, 8)
	if err != nil {
		t.Fatal(err)
	}
	leaf := exec.NewLeaf("s", st, span)
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(4), As: "sum"}
	agg, err := exec.NewAggCached(leaf, spec, span)
	if err != nil {
		t.Fatal(err)
	}
	base := algebra.Base("s", st)
	aggNode, err := algebra.Agg(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[exec.Plan]*algebra.Node{leaf: base, agg: aggNode}
	return agg, func(p exec.Plan) *algebra.Node { return nodes[p] }, span
}

func wantInvariant(t *testing.T, issues []planlint.Issue, invariant, msgFrag string) {
	t.Helper()
	for _, is := range issues {
		if is.Invariant == invariant && strings.Contains(is.Detail, msgFrag) {
			return
		}
	}
	t.Fatalf("no %s issue containing %q in %v", invariant, msgFrag, issues)
}

func TestVerifyPartitionsCleanDecisions(t *testing.T) {
	p, node, span := aggFixture(t, 4096)
	forced, err := parallel.ForceK(p, node, span, 3)
	if err != nil {
		t.Fatal(err)
	}
	if issues := planlint.VerifyPartitions(p, forced); len(issues) != 0 {
		t.Errorf("forced K=3 decision raised %v", issues)
	}
	costed := parallel.Plan(p, node, span, 5000, 4, exec.DefaultCostWeights())
	if !costed.Parallel() {
		t.Fatalf("expected a cost-model split, got %s", costed)
	}
	if issues := planlint.VerifyPartitions(p, costed); len(issues) != 0 {
		t.Errorf("cost-model decision raised %v", issues)
	}
	// Serial decisions and nil plans verify trivially.
	if issues := planlint.VerifyPartitions(p, nil); issues != nil {
		t.Errorf("nil decision raised %v", issues)
	}
	serial := parallel.Plan(p, node, span, 1, 4, exec.DefaultCostWeights())
	if issues := planlint.VerifyPartitions(p, serial); issues != nil {
		t.Errorf("serial decision raised %v", issues)
	}
}

func TestVerifyPartitionsUnionViolations(t *testing.T) {
	p, node, span := aggFixture(t, 4096)
	base, err := parallel.ForceK(p, node, span, 3)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(d *parallel.Decision)) []planlint.Issue {
		d := *base
		d.Partitions = append([]seq.Span(nil), base.Partitions...)
		mutate(&d)
		return planlint.VerifyPartitions(p, &d)
	}
	wantInvariant(t, corrupt(func(d *parallel.Decision) {
		//seqvet:ignore spanarith deliberately corrupting bounded partition spans
		d.Partitions[1] = seq.NewSpan(d.Partitions[1].Start+1, d.Partitions[1].End)
	}), "partition/union", "not contiguous")
	wantInvariant(t, corrupt(func(d *parallel.Decision) {
		//seqvet:ignore spanarith deliberately corrupting bounded partition spans
		d.Partitions[0] = seq.NewSpan(d.Partitions[0].Start, d.Partitions[0].End+1)
	}), "partition/union", "not contiguous")
	wantInvariant(t, corrupt(func(d *parallel.Decision) {
		last := &d.Partitions[len(d.Partitions)-1]
		//seqvet:ignore spanarith deliberately corrupting bounded partition spans
		*last = seq.NewSpan(last.Start, last.End-5)
	}), "partition/union", "union ends at")
	wantInvariant(t, corrupt(func(d *parallel.Decision) {
		d.K = 2
	}), "partition/union", "carries 3 partitions")
	wantInvariant(t, corrupt(func(d *parallel.Decision) {
		d.Span = seq.AllSpan
	}), "partition/union", "unbounded span")
}

func TestVerifyPartitionsHaloUnderstated(t *testing.T) {
	p, node, span := aggFixture(t, 4096)
	d, err := parallel.ForceK(p, node, span, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Halo.Lo > -3 {
		t.Fatalf("fixture halo %s should reach back at least 3", d.Halo)
	}
	d.Halo = algebra.Range(0, 0) // lie: trailing window needs history
	wantInvariant(t, planlint.VerifyPartitions(p, d),
		"partition/halo", "is not the composed effective scope [-3, +0]")
	d.Halo = algebra.Range(-4, 1) // padded: the walk derived it wrong too
	wantInvariant(t, planlint.VerifyPartitions(p, d),
		"partition/halo", "is not the composed effective scope [-3, +0]")
}

func TestVerifyPartitionsSerialOnlySplit(t *testing.T) {
	p, _, span := aggFixture(t, 4096)
	mat, err := exec.NewMaterialize(p, span)
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built (non-forced) K=2 decision over a materialization point
	// claims the cost model split a serial-only plan.
	d := &parallel.Decision{
		K: 2, Partitions: parallel.SplitSpan(span, 2), Span: span, MaxWorkers: 2,
	}
	wantInvariant(t, planlint.VerifyPartitions(mat, d),
		"partition/serial-only", "materialization point")
	// The same decision marked Forced asserts nothing about advisability.
	forced := *d
	forced.Forced = true
	for _, is := range planlint.VerifyPartitions(mat, &forced) {
		if is.Invariant == "partition/serial-only" {
			t.Errorf("forced decision raised %v", is)
		}
	}
}

func TestVerifyPartitionsUnclonablePlan(t *testing.T) {
	p, _, span := aggFixture(t, 4096)
	instr, _, err := exec.Instrument(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &parallel.Decision{
		K: 2, Partitions: parallel.SplitSpan(span, 2), Span: span, MaxWorkers: 2, Forced: true,
	}
	wantInvariant(t, planlint.VerifyPartitions(instr, d),
		"partition/cache-isolation", "not clonable")
}
