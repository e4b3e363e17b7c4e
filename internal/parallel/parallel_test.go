package parallel

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/storage"
)

var floatSchema = seq.MustSchema(seq.Field{Name: "v", Type: seq.TFloat})

// sparseStore builds a sparse store over [1, n] holding a record at
// every stride-th position (density 1/stride).
func sparseStore(t *testing.T, n, stride int64) storage.Store {
	t.Helper()
	var es []seq.Entry
	for p := int64(1); p <= n; p += stride {
		es = append(es, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p))}})
	}
	m, err := seq.NewMaterialized(floatSchema, es)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.FromMaterialized(m, storage.KindSparse, 8)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fixture is a representative stateful stream plan: trailing-window
// aggregate over a backward value offset over a sparse base.
func fixture(t *testing.T, n int64) exec.Plan {
	t.Helper()
	lf := exec.NewLeaf("s", sparseStore(t, n, 2), seq.AllSpan)
	vo, err := exec.NewValueOffsetIncremental(lf, -1, seq.NewSpan(1, n))
	if err != nil {
		t.Fatal(err)
	}
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(4), As: "sum"}
	agg, err := exec.NewAggCached(vo, spec, seq.NewSpan(1, n))
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestSplitSpan(t *testing.T) {
	for _, tc := range []struct {
		span seq.Span
		k    int
		want int
	}{
		{seq.NewSpan(1, 100), 4, 4},
		{seq.NewSpan(-10, 10), 3, 3},
		{seq.NewSpan(5, 7), 8, 3}, // k capped at span length
		{seq.NewSpan(1, 1), 2, 1},
	} {
		parts := SplitSpan(tc.span, tc.k)
		if len(parts) != tc.want {
			t.Fatalf("SplitSpan(%s, %d) = %d parts, want %d", tc.span, tc.k, len(parts), tc.want)
		}
		next := tc.span.Start
		for _, p := range parts {
			if p.Start != next || p.IsEmpty() {
				t.Fatalf("SplitSpan(%s, %d): bad partition %s (want start %d)", tc.span, tc.k, p, next)
			}
			next = p.End + 1 //seqvet:ignore spanarith partitions of a bounded test span
		}
		if next != tc.span.End+1 {
			t.Fatalf("SplitSpan(%s, %d) union ends at %d", tc.span, tc.k, next-1)
		}
		// Near-equal: lengths differ by at most one.
		lo, hi := parts[0].Len(), parts[0].Len()
		for _, p := range parts {
			if p.Len() < lo {
				lo = p.Len()
			}
			if p.Len() > hi {
				hi = p.Len()
			}
		}
		if hi-lo > 1 {
			t.Fatalf("SplitSpan(%s, %d): uneven lengths %d..%d", tc.span, tc.k, lo, hi)
		}
	}
	if parts := SplitSpan(seq.AllSpan, 4); parts != nil {
		t.Fatalf("unbounded span split into %v", parts)
	}
}

// unknownDensity is a sequence whose Info reports no density estimate.
type unknownDensity struct{ seq.Sequence }

func (u unknownDensity) Info() seq.Info {
	i := u.Sequence.Info()
	i.Density = 0
	return i
}

func TestAnalyzeVerdicts(t *testing.T) {
	n := int64(4096)
	lf := func() exec.Plan { return exec.NewLeaf("s", sparseStore(t, n, 2), seq.AllSpan) }
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(4), As: "sum"}

	t.Run("leaf", func(t *testing.T) {
		s := Analyze(lf())
		if !s.Partitionable || s.Halo != algebra.Range(0, 0) {
			t.Fatalf("leaf: %+v", s)
		}
	})
	t.Run("agg-trailing", func(t *testing.T) {
		agg, err := exec.NewAggCached(lf(), spec, seq.NewSpan(1, n))
		if err != nil {
			t.Fatal(err)
		}
		s := Analyze(agg)
		if !s.Partitionable || s.Halo != algebra.Range(-3, 0) {
			t.Fatalf("agg: %+v", s)
		}
	})
	t.Run("posoffset-composes", func(t *testing.T) {
		agg, err := exec.NewAggCached(exec.NewPosOffset(lf(), 2), spec, seq.NewSpan(1, n))
		if err != nil {
			t.Fatal(err)
		}
		s := Analyze(agg)
		if !s.Partitionable || s.Halo != algebra.Range(-1, 2) {
			t.Fatalf("posoffset under agg: %+v", s)
		}
	})
	t.Run("voffset-known-density", func(t *testing.T) {
		vo, err := exec.NewValueOffsetIncremental(lf(), -1, seq.NewSpan(1, n))
		if err != nil {
			t.Fatal(err)
		}
		s := Analyze(vo)
		if !s.Partitionable || s.Halo.Lo >= 0 {
			t.Fatalf("voffset: %+v", s)
		}
	})
	t.Run("voffset-unknown-density", func(t *testing.T) {
		in := exec.NewLeaf("u", unknownDensity{sparseStore(t, n, 2)}, seq.AllSpan)
		vo, err := exec.NewValueOffsetIncremental(in, -1, seq.NewSpan(1, n))
		if err != nil {
			t.Fatal(err)
		}
		if s := Analyze(vo); s.Partitionable {
			t.Fatalf("unknown density must be serial-only: %+v", s)
		}
	})
	t.Run("cumulative", func(t *testing.T) {
		cum, err := exec.NewAggCumulative(lf(), algebra.AggSpec{
			Func: algebra.AggSum, Arg: 0,
			Window: algebra.Window{LoUnbounded: true, Hi: 0}, As: "sum",
		}, seq.NewSpan(1, n))
		if err != nil {
			t.Fatal(err)
		}
		if s := Analyze(cum); s.Partitionable {
			t.Fatalf("cumulative must be serial-only: %+v", s)
		}
	})
	t.Run("compose-lockstep", func(t *testing.T) {
		schema := seq.MustSchema(
			seq.Field{Name: "l", Type: seq.TFloat}, seq.Field{Name: "r", Type: seq.TFloat})
		j, err := exec.NewCompose(lf(), exec.NewPosOffset(lf(), -1), nil, schema, exec.ComposeLockStep)
		if err != nil {
			t.Fatal(err)
		}
		s := Analyze(j)
		if !s.Partitionable || s.Halo != algebra.Range(-1, 0) {
			t.Fatalf("lockstep compose: %+v", s)
		}
	})
	t.Run("compose-probed", func(t *testing.T) {
		schema := seq.MustSchema(
			seq.Field{Name: "l", Type: seq.TFloat}, seq.Field{Name: "r", Type: seq.TFloat})
		j, err := exec.NewCompose(lf(), lf(), nil, schema, exec.ComposeStreamLeft)
		if err != nil {
			t.Fatal(err)
		}
		if s := Analyze(j); s.Partitionable {
			t.Fatalf("probed compose must be serial-only: %+v", s)
		}
	})
	t.Run("materialize", func(t *testing.T) {
		m, err := exec.NewMaterialize(lf(), seq.NewSpan(1, n))
		if err != nil {
			t.Fatal(err)
		}
		if s := Analyze(m); s.Partitionable {
			t.Fatalf("materialize must be serial-only: %+v", s)
		}
	})
	t.Run("collapse-affine", func(t *testing.T) {
		col, err := exec.NewCollapse(lf(), 4, algebra.AggSpec{Func: algebra.AggSum, Arg: 0, As: "sum"}, seq.NewSpan(0, n/4))
		if err != nil {
			t.Fatal(err)
		}
		s := Analyze(col)
		if !s.Partitionable || s.Halo != algebra.Range(0, 3) {
			t.Fatalf("collapse: %+v", s)
		}
	})
}

func TestPlanCostModel(t *testing.T) {
	n := int64(32 * 1024)
	p := fixture(t, n)
	span := seq.NewSpan(1, n)

	t.Run("cheap-stays-serial", func(t *testing.T) {
		d := Plan(p, span, 20.0, 8, DefaultParams())
		if d.Parallel() || d.Reason != "cost model prefers serial" {
			t.Fatalf("cheap query: %s", d)
		}
	})
	t.Run("expensive-splits", func(t *testing.T) {
		d := Plan(p, span, 1000.0, 4, DefaultParams())
		if d.K != 4 {
			t.Fatalf("want K=4, got %s", d)
		}
		if d.ParallelCost >= d.SerialCost {
			t.Fatalf("parallel cost %f must beat serial %f", d.ParallelCost, d.SerialCost)
		}
		if len(d.Partitions) != 4 {
			t.Fatalf("partitions: %v", d.Partitions)
		}
	})
	t.Run("halo-overhead-caps-k", func(t *testing.T) {
		// A huge per-boundary overhead makes extra workers net-negative.
		params := DefaultParams()
		params.Startup = 400
		d := Plan(p, span, 1000.0, 8, params)
		if d.K > 1 {
			t.Fatalf("want serial under extreme startup, got %s", d)
		}
	})
	t.Run("short-span-stays-serial", func(t *testing.T) {
		d := Plan(p, seq.NewSpan(1, 600), 1000.0, 8, DefaultParams())
		if d.Parallel() {
			t.Fatalf("600-position span must not split: %s", d)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		d := Plan(p, span, 1000.0, 1, DefaultParams())
		if d.Parallel() || d.Reason != "parallelism disabled (max workers 1)" {
			t.Fatalf("disabled: %s", d)
		}
	})
	t.Run("unbounded-span", func(t *testing.T) {
		if d := Plan(p, seq.AllSpan, 1000.0, 8, DefaultParams()); d.Parallel() {
			t.Fatalf("unbounded span: %s", d)
		}
	})
	t.Run("serial-only-plan", func(t *testing.T) {
		m, err := exec.NewMaterialize(fixture(t, n), seq.NewSpan(1, n))
		if err != nil {
			t.Fatal(err)
		}
		d := Plan(m, span, 1000.0, 8, DefaultParams())
		if d.Parallel() || d.Reason == "" {
			t.Fatalf("serial-only plan: %s", d)
		}
	})
}

// probed is the plan's answer over span by probed access at every
// position (§3.3), which shares no code with its stream access.
func probed(t *testing.T, p exec.Plan, span seq.Span) []seq.Entry {
	t.Helper()
	positions := make([]seq.Pos, 0, span.Len())
	for pos := span.Start; pos <= span.End; pos++ {
		positions = append(positions, pos)
	}
	want, err := exec.RunProbes(p, positions)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func entriesEqual(t *testing.T, got, want []seq.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Pos != want[i].Pos {
			t.Fatalf("entry %d at position %d, want %d", i, got[i].Pos, want[i].Pos)
		}
		if len(got[i].Rec) != len(want[i].Rec) {
			t.Fatalf("entry %d arity %d, want %d", i, len(got[i].Rec), len(want[i].Rec))
		}
		for j := range want[i].Rec {
			if got[i].Rec[j] != want[i].Rec[j] {
				t.Fatalf("entry %d field %d = %v, want %v", i, j, got[i].Rec[j], want[i].Rec[j])
			}
		}
	}
}

func TestRunMatchesSerial(t *testing.T) {
	n := int64(4096)
	p := fixture(t, n)
	span := seq.NewSpan(1, n)
	want := probed(t, p, span)
	for _, k := range []int{2, 3, 7} {
		d, err := ForceK(p, span, k)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := Run(p, span, d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		entriesEqual(t, got.Entries(), want)
	}
}

func TestRunFallsBackOnSerialDecision(t *testing.T) {
	n := int64(2048)
	p := fixture(t, n)
	span := seq.NewSpan(1, n)
	d := Plan(p, span, 1.0, 8, DefaultParams()) // cost model says serial
	got, _, _, err := Run(p, span, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := probed(t, p, span)
	entriesEqual(t, got.Entries(), want)
}

func TestForceKValidation(t *testing.T) {
	p := fixture(t, 1024)
	if _, err := ForceK(p, seq.AllSpan, 2); err == nil {
		t.Fatal("unbounded span must be rejected")
	}
	if _, err := ForceK(p, seq.NewSpan(1, 100), 1); err == nil {
		t.Fatal("K=1 must be rejected")
	}
	instr, _, err := exec.Instrument(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForceK(instr, seq.NewSpan(1, 100), 2); err == nil {
		t.Fatal("unclonable plan must be rejected")
	}
}

func TestRunAnalyzePartitions(t *testing.T) {
	n := int64(4096)
	p := fixture(t, n)
	span := seq.NewSpan(1, n)
	d, err := ForceK(p, span, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := probed(t, p, span)
	stores := exec.PlanStores(p)
	if len(stores) != 1 {
		t.Fatalf("fixture has %d stores", len(stores))
	}
	before := stores[0].Stats().Snapshot()

	out, root, parts, err := Run(p, span, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := stores[0].Stats().Snapshot()
	entriesEqual(t, out.Entries(), want)

	if len(parts) != 3 {
		t.Fatalf("got %d partition records", len(parts))
	}
	var rows int64
	var pages storage.StatsSnapshot
	for i, pm := range parts {
		if pm.Span != d.Partitions[i] {
			t.Errorf("partition %d span %s, want %s", i, pm.Span, d.Partitions[i])
		}
		rows += pm.Rows
		pages = pages.Add(pm.Pages)
	}
	if rows != int64(out.Count()) {
		t.Errorf("partition rows sum %d, output rows %d", rows, out.Count())
	}
	// Finalize must re-credit every worker's fork accesses to the shared
	// store counters: the shared movement across the analyzed
	// run equals the per-partition sum exactly.
	if got := after.Sub(before); pages != got {
		t.Errorf("per-partition pages sum %v, shared movement %v", pages, got)
	}
	// The merged metrics tree mirrors the plan and sums worker rows.
	root.Labels()
	if root.Label != p.Label() {
		t.Errorf("merged root label %q", root.Label)
	}
	if root.ScanRows != int64(out.Count()) {
		t.Errorf("merged root rows %d, want %d", root.ScanRows, out.Count())
	}
	if root.ScanCalls != 3 {
		t.Errorf("merged root scans %d, want 3", root.ScanCalls)
	}
}
