package exec

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/seq"
	"repro/internal/storage"
)

// clonableFixture builds a stateful plan — Cache-Strategy-A aggregate
// over a Cache-Strategy-B value offset, reading a paged sparse store —
// whose correct evaluation depends on private per-run cache state and
// whose instrumentation meters real page accesses.
func clonableFixture(t *testing.T) Plan {
	t.Helper()
	st, err := storage.FromMaterialized(
		mkSeq(t, map[seq.Pos]float64{1: 10, 2: 20, 4: 40, 5: 50, 7: 70, 8: 80}),
		storage.KindSparse, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := NewLeaf("s", st, seq.AllSpan)
	vo, err := NewValueOffsetIncremental(in, -2, seq.NewSpan(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(3), As: "sum"}
	agg, err := NewAggCached(vo, spec, seq.NewSpan(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestClonePlanIndependence(t *testing.T) {
	p := clonableFixture(t)
	want := runPlan(t, p, seq.NewSpan(1, 10))

	cp, err := ClonePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	// The clone mirrors the original node for node, with matching
	// labels, and shares no node with it.
	var walk func(o, c Plan)
	walk = func(o, c Plan) {
		if o == c {
			t.Fatalf("clone shares node %s with the original", c.Label())
		}
		if o.Label() != c.Label() {
			t.Fatalf("clone %s mirrors original %s", c.Label(), o.Label())
		}
		oc, cc := o.Children(), c.Children()
		if len(oc) != len(cc) {
			t.Fatalf("clone %s has %d children, original %d", c.Label(), len(cc), len(oc))
		}
		for i := range cc {
			walk(oc[i], cc[i])
		}
	}
	walk(p, cp)
	// No operator cache may be shared between the clone and the original.
	seen := make(map[any]bool)
	for _, n := range []Plan{p, cp} {
		var collect func(pl Plan)
		collect = func(pl Plan) {
			for _, f := range pl.Caches() {
				if seen[f] {
					t.Fatalf("cache shared between original and clone at %s", pl.Label())
				}
				seen[f] = true
			}
			for _, ch := range pl.Children() {
				collect(ch)
			}
		}
		collect(n)
	}
	// Interleaved evaluation: both plans produce the serial answer while
	// taking turns (shared caches would corrupt each other's streams).
	got := runPlan(t, cp, seq.NewSpan(1, 10))
	wantMap(t, got, want)
	wantMap(t, runPlan(t, p, seq.NewSpan(1, 10)), want)
	wantMap(t, runPlan(t, cp, seq.NewSpan(1, 10)), want)
}

func TestClonePlanRefusesUnknownOperators(t *testing.T) {
	p := clonableFixture(t)
	instr, _ := mustInstrument(t, p)
	if _, err := ClonePlan(instr); err == nil {
		t.Fatal("cloning an instrumented (*Metered) tree must fail")
	} else if !strings.Contains(err.Error(), "cannot clone unknown operator") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// mustInstrument is Instrument without estimates, failing the test on
// an unclonable plan.
func mustInstrument(t *testing.T, p Plan) (Plan, *NodeMetrics) {
	t.Helper()
	instr, root, err := Instrument(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return instr, root
}

// TestInstrumentShardsMergeConcurrently is the concurrency contract of
// the EXPLAIN ANALYZE counters: one instrumented copy per worker (a
// private metrics shard, whose leaves read private forks of the base
// stores), merged after the workers join. Sharing a single instrumented
// plan across workers instead makes the plain-int NodeMetrics counters a
// data race — the -race runs in CI fail on that naive version;
// Instrument + Finalize + Merge is the only supported shape for
// concurrent analysis.
func TestInstrumentShardsMergeConcurrently(t *testing.T) {
	p := clonableFixture(t)
	spans := []seq.Span{seq.NewSpan(1, 3), seq.NewSpan(4, 6), seq.NewSpan(7, 10)}
	shared := PlanStores(p)[0].Stats()

	// Serial reference: one shard draining every span in turn.
	refInstr, refRoot := mustInstrument(t, p)
	for _, s := range spans {
		if _, err := Run(refInstr, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	refRoot.Finalize()

	// Concurrent workers: a private instrumented copy each, merged at
	// the end.
	before := shared.Snapshot()
	roots := make([]*NodeMetrics, len(spans))
	var wg sync.WaitGroup
	for i, s := range spans {
		instr, root := mustInstrument(t, p)
		roots[i] = root
		wg.Add(1)
		go func(s seq.Span) {
			defer wg.Done()
			if _, err := Run(instr, s, nil); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
	merged := roots[0]
	merged.Finalize()
	for _, r := range roots[1:] {
		r.Finalize()
		if err := merged.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	// The merged shards must agree with the serial reference on every
	// data-dependent counter (times differ; capacities triple, because
	// three workers own three full cache sets).
	merged.Labels()
	refRoot.Labels()
	var check func(a, b *NodeMetrics)
	check = func(a, b *NodeMetrics) {
		if a.Label != b.Label {
			t.Fatalf("shape mismatch: %s vs %s", a.Label, b.Label)
		}
		if a.ScanRows != b.ScanRows || a.ProbeCalls != b.ProbeCalls || a.ProbeNulls != b.ProbeNulls {
			t.Errorf("%s: merged rows/probes = %d/%d/%d, serial %d/%d/%d",
				a.Label, a.ScanRows, a.ProbeCalls, a.ProbeNulls, b.ScanRows, b.ProbeCalls, b.ProbeNulls)
		}
		if a.Pages != b.Pages {
			t.Errorf("%s: merged pages %v, serial %v", a.Label, a.Pages, b.Pages)
		}
		for i := range a.Children {
			check(a.Children[i], b.Children[i])
		}
	}
	check(merged, refRoot)
	if merged.ScanCalls != refRoot.ScanCalls {
		t.Errorf("merged scan calls %d, serial %d", merged.ScanCalls, refRoot.ScanCalls)
	}
	// Finalize folded every worker's fork into the shared store counters.
	if moved, total := shared.Snapshot().Sub(before), merged.TotalPages(); moved != total || moved.Pages() == 0 {
		t.Errorf("shared counters moved %v, shards attributed %v", moved, total)
	}
}

func TestMergeRejectsDifferentShapes(t *testing.T) {
	p := clonableFixture(t)
	_, a := mustInstrument(t, p)
	_, b := mustInstrument(t, leaf(t, map[seq.Pos]float64{1: 1}))
	if err := a.Merge(b); err == nil {
		t.Fatal("merging metrics of different plans must fail")
	}
	// Two plans of one shape and one label are still two plans.
	_, c := mustInstrument(t, leaf(t, map[seq.Pos]float64{1: 1}))
	_, d := mustInstrument(t, leaf(t, map[seq.Pos]float64{1: 1}))
	if err := c.Merge(d); err == nil {
		t.Fatal("merging metrics of two plans of one shape must fail")
	}
}
