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

	cp, orig, err := ClonePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	// The clone maps back to the original node for node, with matching
	// labels.
	var walk func(c Plan)
	walk = func(c Plan) {
		o, ok := orig[c]
		if !ok {
			t.Fatalf("clone node %s missing from the origin mapping", c.Label())
		}
		if o.Label() != c.Label() {
			t.Fatalf("clone %s maps to original %s", c.Label(), o.Label())
		}
		for _, ch := range c.Children() {
			walk(ch)
		}
	}
	walk(cp)
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
	instr, _ := Instrument(p, nil)
	if _, _, err := ClonePlan(instr); err == nil {
		t.Fatal("cloning an instrumented (*Metered) tree must fail")
	} else if !strings.Contains(err.Error(), "cannot clone unknown operator") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestInstrumentShardsMergeConcurrently is the concurrency contract of
// the EXPLAIN ANALYZE counters: one instrumented plan per worker (a
// private metrics shard) over a worker-private fork of each base store,
// merged after the workers join. Sharing a single instrumented plan
// across workers instead makes the plain-int NodeMetrics counters a
// data race — the -race runs in CI fail on that naive version — and
// sharing the store counters between workers interleaves the Metered
// delta snapshots, misattributing pages; Instrument + Fork + Merge is
// the only supported shape for concurrent analysis.
func TestInstrumentShardsMergeConcurrently(t *testing.T) {
	p := clonableFixture(t)
	spans := []seq.Span{seq.NewSpan(1, 3), seq.NewSpan(4, 6), seq.NewSpan(7, 10)}

	// Serial reference: one shard draining every span in turn.
	refInstr, refRoot := Instrument(p, nil)
	for _, s := range spans {
		if _, err := Run(refInstr, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	refRoot.Finalize()

	// Concurrent workers: a private clone, store fork, and shard each,
	// merged at the end.
	roots := make([]*NodeMetrics, len(spans))
	var wg sync.WaitGroup
	for i, s := range spans {
		cp, _, err := ClonePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		ReplaceLeafSeqs(cp, func(l *Leaf) {
			if st, ok := l.Seq.(storage.StatsForker); ok {
				l.Seq = st.Fork(&storage.Stats{})
			}
		})
		instr, root := Instrument(cp, nil)
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
}

func TestMergeRejectsDifferentShapes(t *testing.T) {
	p := clonableFixture(t)
	_, a := Instrument(p, nil)
	_, b := Instrument(leaf(t, map[seq.Pos]float64{1: 1}), nil)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging metrics of different plans must fail")
	}
}
