package parallel

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
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

// planNodes records which algebra node each test operator evaluates:
// the lookup Analyze takes, as core.Result.Node supplies it.
type planNodes map[exec.Plan]*algebra.Node

func (m planNodes) node(p exec.Plan) *algebra.Node { return m[p] }

// built is a test operator with the algebra node it evaluates.
type built struct {
	plan exec.Plan
	node *algebra.Node
}

// record notes that operator p evaluates node n.
func (m planNodes) record(p exec.Plan, n *algebra.Node) built {
	m[p] = n
	return built{p, n}
}

// must panics on a fixture constructor's error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// fixture is a representative stateful stream plan: trailing-window
// aggregate over a backward value offset over a sparse base, with the
// lookup of the algebra nodes its operators evaluate.
func fixture(t *testing.T, n int64) (exec.Plan, func(exec.Plan) *algebra.Node) {
	t.Helper()
	st := sparseStore(t, n, 2)
	base := algebra.Base("s", st)
	lf := exec.NewLeaf("s", st, seq.AllSpan)
	vn := must(algebra.ValueOffset(base, -1))
	vo := must(exec.NewValueOffsetIncremental(lf, -1, seq.NewSpan(1, n)))
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(4), As: "sum"}
	agg := must(exec.NewAggCached(vo, spec, seq.NewSpan(1, n)))
	m := planNodes{lf: base, vo: vn, agg: must(algebra.Agg(vn, spec))}
	return agg, m.node
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
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(4), As: "sum"}
	pair := seq.MustSchema(
		seq.Field{Name: "l", Type: seq.TFloat}, seq.Field{Name: "r", Type: seq.TFloat})
	// Each case builds its plan bottom-up from leaves, recording in m
	// the algebra node every operator evaluates.
	cases := []struct {
		name  string
		build func(m planNodes, leaf func() built) built
		// halo is checked when the plan is partitionable; reason, when
		// set, is a fragment of the serial-only verdict.
		halo   algebra.Window
		reason string
	}{
		{"leaf", func(m planNodes, leaf func() built) built { return leaf() }, algebra.Range(0, 0), ""},
		{"agg-trailing", func(m planNodes, leaf func() built) built {
			in := leaf()
			return m.record(must(exec.NewAggCached(in.plan, spec, seq.NewSpan(1, n))), must(algebra.Agg(in.node, spec)))
		}, algebra.Range(-3, 0), ""},
		{"posoffset-composes", func(m planNodes, leaf func() built) built {
			in := leaf()
			po := m.record(exec.NewPosOffset(in.plan, 2), must(algebra.PosOffset(in.node, 2)))
			return m.record(must(exec.NewAggCached(po.plan, spec, seq.NewSpan(1, n))), must(algebra.Agg(po.node, spec)))
		}, algebra.Range(-1, 2), ""},
		{"voffset-known-density", func(m planNodes, leaf func() built) built {
			in := leaf()
			return m.record(must(exec.NewValueOffsetIncremental(in.plan, -1, seq.NewSpan(1, n))), must(algebra.ValueOffset(in.node, -1)))
		}, algebra.Range(-2, 0), ""},
		{"voffset-unknown-density", func(m planNodes, leaf func() built) built {
			st := unknownDensity{sparseStore(t, n, 2)}
			in := m.record(exec.NewLeaf("u", st, seq.AllSpan), algebra.Base("u", st))
			return m.record(must(exec.NewValueOffsetIncremental(in.plan, -1, seq.NewSpan(1, n))), must(algebra.ValueOffset(in.node, -1)))
		}, algebra.Window{}, "unknown density"},
		{"cumulative", func(m planNodes, leaf func() built) built {
			in := leaf()
			cum := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Cumulative(), As: "sum"}
			return m.record(must(exec.NewAggCumulative(in.plan, cum, seq.NewSpan(1, n))), must(algebra.Agg(in.node, cum)))
		}, algebra.Window{}, "unbounded window"},
		{"compose-lockstep", func(m planNodes, leaf func() built) built {
			l, r := leaf(), leaf()
			po := m.record(exec.NewPosOffset(r.plan, -1), must(algebra.PosOffset(r.node, -1)))
			return m.record(must(exec.NewCompose(l.plan, po.plan, nil, pair, exec.ComposeLockStep)), must(algebra.Compose(l.node, po.node, nil, "l", "r")))
		}, algebra.Range(-1, 0), ""},
		{"compose-probed", func(m planNodes, leaf func() built) built {
			l, r := leaf(), leaf()
			return m.record(must(exec.NewCompose(l.plan, r.plan, nil, pair, exec.ComposeStreamLeft)), must(algebra.Compose(l.node, r.node, nil, "l", "r")))
		}, algebra.Window{}, "probed-mode"},
		{"materialize", func(m planNodes, leaf func() built) built {
			in := leaf()
			return built{plan: must(exec.NewMaterialize(in.plan, seq.NewSpan(1, n)))}
		}, algebra.Window{}, "materialization point"},
		{"collapse-affine", func(m planNodes, leaf func() built) built {
			in := leaf()
			sum := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, As: "sum"}
			return m.record(must(exec.NewCollapse(in.plan, 4, sum, seq.NewSpan(0, n/4))), must(algebra.Collapse(in.node, 4, sum)))
		}, algebra.Range(0, 3), ""},
		// A view answers a trailing aggregate: the view scan, its
		// residual select and the restoring projection stand in for the
		// aggregate, and the top one evaluates its node. No operator
		// below it evaluates the aggregate's input, so no window applies.
		{"view-answered", func(m planNodes, leaf func() built) built {
			in := leaf()
			view := exec.NewLeaf("matview:v", sparseStore(t, n, 2), seq.NewSpan(1, n))
			pred := must(expr.NewBin(expr.OpGt, must(expr.NewCol(floatSchema, "v")), expr.Literal(seq.Float(0))))
			restore := must(exec.NewProject(exec.NewSelect(view, pred), []exec.ProjExpr{{Expr: must(expr.ColAt(floatSchema, 0)), Name: "sum"}}))
			return m.record(restore, must(algebra.Agg(in.node, spec)))
		}, algebra.Range(0, 0), ""},
		// A view covering a prefix of the span is spliced to the
		// recomputed tail.
		{"partial-view-concat", func(m planNodes, leaf func() built) built {
			in := leaf()
			agg := m.record(must(exec.NewAggCached(in.plan, spec, seq.NewSpan(1, n))), must(algebra.Agg(in.node, spec)))
			view := exec.NewLeaf("matview:v", sparseStore(t, n/2, 2), seq.NewSpan(1, n/2))
			return m.record(must(exec.NewConcat(view, agg.plan, n/2)), agg.node)
		}, algebra.Window{}, "partial view substitution"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := planNodes{}
			leaf := func() built {
				st := sparseStore(t, n, 2)
				return m.record(exec.NewLeaf("s", st, seq.AllSpan), algebra.Base("s", st))
			}
			p := c.build(m, leaf).plan
			s := Analyze(p, m.node)
			if c.reason != "" {
				if s.Partitionable || !strings.Contains(s.Reason, c.reason) {
					t.Fatalf("want serial-only (%s), got %+v", c.reason, s)
				}
				return
			}
			if !s.Partitionable || s.Halo != c.halo {
				t.Fatalf("want halo %s, got %+v", c.halo, s)
			}
		})
	}
}

func TestPlanCostModel(t *testing.T) {
	n := int64(32 * 1024)
	p, node := fixture(t, n)
	span := seq.NewSpan(1, n)

	t.Run("cheap-stays-serial", func(t *testing.T) {
		d := Plan(p, node, span, 20.0, 8, exec.DefaultCostWeights())
		if d.Parallel() || d.Reason != "cost model prefers serial" {
			t.Fatalf("cheap query: %s", d)
		}
	})
	t.Run("expensive-splits", func(t *testing.T) {
		d := Plan(p, node, span, 1000.0, 4, exec.DefaultCostWeights())
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
		w := exec.DefaultCostWeights()
		w.ParallelStartup = 400
		d := Plan(p, node, span, 1000.0, 8, w)
		if d.K > 1 {
			t.Fatalf("want serial under extreme startup, got %s", d)
		}
	})
	t.Run("short-span-stays-serial", func(t *testing.T) {
		d := Plan(p, node, seq.NewSpan(1, 600), 1000.0, 8, exec.DefaultCostWeights())
		if d.Parallel() {
			t.Fatalf("600-position span must not split: %s", d)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		d := Plan(p, node, span, 1000.0, 1, exec.DefaultCostWeights())
		if d.Parallel() || d.Reason != "parallelism disabled (max workers 1)" {
			t.Fatalf("disabled: %s", d)
		}
	})
	t.Run("unbounded-span", func(t *testing.T) {
		if d := Plan(p, node, seq.AllSpan, 1000.0, 8, exec.DefaultCostWeights()); d.Parallel() {
			t.Fatalf("unbounded span: %s", d)
		}
	})
	t.Run("serial-only-plan", func(t *testing.T) {
		m, err := exec.NewMaterialize(p, seq.NewSpan(1, n))
		if err != nil {
			t.Fatal(err)
		}
		d := Plan(m, node, span, 1000.0, 8, exec.DefaultCostWeights())
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
	p, node := fixture(t, n)
	span := seq.NewSpan(1, n)
	want := probed(t, p, span)
	for _, k := range []int{2, 3, 7} {
		d, err := ForceK(p, node, span, k)
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
	p, node := fixture(t, n)
	span := seq.NewSpan(1, n)
	d := Plan(p, node, span, 1.0, 8, exec.DefaultCostWeights()) // cost model says serial
	got, _, _, err := Run(p, span, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := probed(t, p, span)
	entriesEqual(t, got.Entries(), want)
}

func TestForceKValidation(t *testing.T) {
	p, node := fixture(t, 1024)
	if _, err := ForceK(p, node, seq.AllSpan, 2); err == nil {
		t.Fatal("unbounded span must be rejected")
	}
	if _, err := ForceK(p, node, seq.NewSpan(1, 100), 1); err == nil {
		t.Fatal("K=1 must be rejected")
	}
	instr, _, err := exec.Instrument(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForceK(instr, node, seq.NewSpan(1, 100), 2); err == nil {
		t.Fatal("unclonable plan must be rejected")
	}
}

func TestRunAnalyzePartitions(t *testing.T) {
	n := int64(4096)
	p, node := fixture(t, n)
	span := seq.NewSpan(1, n)
	d, err := ForceK(p, node, span, 3)
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
