package exec

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/seq"
)

var closeSchema = seq.MustSchema(seq.Field{Name: "close", Type: seq.TFloat})

func mkSeq(t *testing.T, pairs map[seq.Pos]float64) *seq.Materialized {
	t.Helper()
	es := make([]seq.Entry, 0, len(pairs))
	for p, v := range pairs {
		es = append(es, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(v)}})
	}
	return seq.MustMaterialized(closeSchema, es)
}

func leaf(t *testing.T, pairs map[seq.Pos]float64) *Leaf {
	t.Helper()
	return NewLeaf("s", mkSeq(t, pairs), seq.AllSpan)
}

func gt(t *testing.T, schema *seq.Schema, col string, v float64) expr.Expr {
	t.Helper()
	c, err := expr.NewCol(schema, col)
	if err != nil {
		t.Fatal(err)
	}
	e, err := expr.NewBin(expr.OpGt, c, expr.Literal(seq.Float(v)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runPlan drains the plan over span and returns pos -> first column float.
func runPlan(t *testing.T, p Plan, span seq.Span) map[seq.Pos]float64 {
	t.Helper()
	m, err := Run(p, span, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[seq.Pos]float64)
	for _, e := range m.Entries() {
		out[e.Pos] = e.Rec[0].AsFloat()
	}
	return out
}

func wantMap(t *testing.T, got, want map[seq.Pos]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for p, v := range want {
		if g, ok := got[p]; !ok || g != v {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestLeafSpanRestriction(t *testing.T) {
	l := NewLeaf("s", mkSeq(t, map[seq.Pos]float64{1: 1, 5: 5, 9: 9}), seq.NewSpan(3, 7))
	got := runPlan(t, l, seq.AllSpan)
	wantMap(t, got, map[seq.Pos]float64{5: 5})
	// Probes are not restricted (restriction is a scan optimization).
	r, err := l.Probe(9)
	if err != nil || r.IsNull() {
		t.Error("probe outside access span must still answer")
	}
	if !strings.Contains(l.Label(), "span=") {
		t.Errorf("label = %q", l.Label())
	}
	u := NewLeaf("s", mkSeq(t, nil), seq.AllSpan)
	if strings.Contains(u.Label(), "span=") {
		t.Errorf("unrestricted label = %q", u.Label())
	}
}

func TestSelectOp(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 5, 2: 9, 3: 2})
	s := NewSelect(in, gt(t, closeSchema, "close", 4))
	wantMap(t, runPlan(t, s, seq.AllSpan), map[seq.Pos]float64{1: 5, 2: 9})
	r, err := s.Probe(2)
	if err != nil || r.IsNull() {
		t.Errorf("Probe(2) = %v, %v", r, err)
	}
	r, err = s.Probe(3)
	if err != nil || !r.IsNull() {
		t.Errorf("Probe(3) must be Null, got %v", r)
	}
	if s.Label() == "" || len(s.Children()) != 1 || s.Caches() != nil {
		t.Error("plan metadata wrong")
	}
}

func TestProjectOp(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 5})
	c, _ := expr.NewCol(closeSchema, "close")
	dbl, _ := expr.NewBin(expr.OpMul, c, expr.Literal(seq.Float(2)))
	p, err := NewProject(in, []ProjExpr{{Expr: dbl, Name: "twice"}})
	if err != nil {
		t.Fatal(err)
	}
	wantMap(t, runPlan(t, p, seq.AllSpan), map[seq.Pos]float64{1: 10})
	r, err := p.Probe(1)
	if err != nil || r[0].AsFloat() != 10 {
		t.Errorf("Probe = %v, %v", r, err)
	}
	if r, _ := p.Probe(2); !r.IsNull() {
		t.Error("Probe at empty position must be Null")
	}
	if p.Info().Schema.Field(0).Name != "twice" {
		t.Error("projected schema wrong")
	}
	if _, err := NewProject(in, []ProjExpr{{Expr: c, Name: "a"}, {Expr: c, Name: "a"}}); err == nil {
		t.Error("duplicate output names must be rejected")
	}
}

func TestPosOffsetOp(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{3: 30, 5: 50})
	o := NewPosOffset(in, 2) // out(i) = in(i+2)
	wantMap(t, runPlan(t, o, seq.AllSpan), map[seq.Pos]float64{1: 30, 3: 50})
	r, err := o.Probe(1)
	if err != nil || r[0].AsFloat() != 30 {
		t.Errorf("Probe(1) = %v, %v", r, err)
	}
	//seqvet:ignore spanarith deliberately probing at the sentinel boundary
	if r, _ := o.Probe(seq.MaxPos - 1); !r.IsNull() {
		t.Error("offset past the sentinel must be Null")
	}
	// Restricted scan.
	wantMap(t, runPlan(t, o, seq.NewSpan(2, 9)), map[seq.Pos]float64{3: 50})
	if o.Info().Span != seq.NewSpan(1, 3) {
		t.Errorf("Info span = %v", o.Info().Span)
	}
}

func TestValueOffsetNaivePrevious(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{2: 20, 5: 50, 6: 60})
	v, err := NewValueOffsetNaive(in, -1, seq.NewSpan(0, 9))
	if err != nil {
		t.Fatal(err)
	}
	want := map[seq.Pos]float64{3: 20, 4: 20, 5: 20, 6: 50, 7: 60, 8: 60, 9: 60}
	wantMap(t, runPlan(t, v, seq.AllSpan), want)
	r, err := v.Probe(6)
	if err != nil || r[0].AsFloat() != 50 {
		t.Errorf("Probe(6) = %v, %v", r, err)
	}
	if r, _ := v.Probe(2); !r.IsNull() {
		t.Error("Probe(2) must be Null (no earlier record)")
	}
	if _, err := NewValueOffsetNaive(in, 0, seq.AllSpan); err == nil {
		t.Error("zero offset must be rejected")
	}
	unbounded, _ := NewValueOffsetNaive(in, -1, seq.AllSpan)
	if err := unbounded.Scan(seq.AllSpan).Err(); err == nil {
		t.Error("unbounded value-offset scan must error")
	}
}

func TestValueOffsetIncrementalMatchesNaive(t *testing.T) {
	pairs := map[seq.Pos]float64{2: 20, 5: 50, 6: 60, 11: 110, 17: 170}
	for _, offset := range []int64{-1, -2, -3, 1, 2} {
		in := leaf(t, pairs)
		span := seq.NewSpan(0, 20)
		naive, err := NewValueOffsetNaive(in, offset, span)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewValueOffsetIncremental(in, offset, span)
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, inc, seq.AllSpan)
		want := runPlan(t, naive, seq.AllSpan)
		if len(got) != len(want) {
			t.Fatalf("offset %d: inc %v, naive %v", offset, got, want)
		}
		for p, v := range want {
			if got[p] != v {
				t.Fatalf("offset %d at %d: inc %g, naive %g", offset, p, got[p], v)
			}
		}
		// Cache-finite: peak residency is at most |offset|.
		k := offset
		if k < 0 {
			k = -k
		}
		if peak := PeakCacheResidency(inc); int64(peak) > k {
			t.Errorf("offset %d: peak cache %d exceeds |offset|", offset, peak)
		}
		// Probe fallback agrees.
		for p := seq.Pos(0); p <= 20; p++ {
			a, err1 := inc.Probe(p)
			b, err2 := naive.Probe(p)
			if err1 != nil || err2 != nil || !a.Equal(b) {
				t.Fatalf("offset %d probe %d: %v vs %v", offset, p, a, b)
			}
		}
	}
}

func TestValueOffsetMatchesReference(t *testing.T) {
	pairs := map[seq.Pos]float64{1: 10, 3: 30, 6: 60, 7: 70}
	for _, offset := range []int64{-2, -1, 1, 2} {
		node := algebra.Base("s", mkSeq(t, pairs))
		vo, err := algebra.ValueOffset(node, offset)
		if err != nil {
			t.Fatal(err)
		}
		want, err := algebra.EvalRange(vo, seq.NewSpan(-1, 10))
		if err != nil {
			t.Fatal(err)
		}
		in := leaf(t, pairs)
		inc, _ := NewValueOffsetIncremental(in, offset, seq.NewSpan(-1, 10))
		got, err := seq.Collect(inc.Scan(seq.AllSpan))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("offset %d: got %v, want %v", offset, got, want)
		}
		for i := range got {
			if got[i].Pos != want[i].Pos || !got[i].Rec.Equal(want[i].Rec) {
				t.Fatalf("offset %d: entry %d: %v vs %v", offset, i, got[i], want[i])
			}
		}
	}
}

func aggVariants(t *testing.T, in Plan, spec algebra.AggSpec, outSpan seq.Span) []Plan {
	t.Helper()
	naive, err := NewAggNaive(in, spec, outSpan)
	if err != nil {
		t.Fatal(err)
	}
	plans := []Plan{naive}
	if _, fixed := spec.Window.Size(); fixed {
		cached, err := NewAggCached(in, spec, outSpan)
		if err != nil {
			t.Fatal(err)
		}
		sliding, err := NewAggSliding(in, spec, outSpan)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, cached, sliding)
	}
	if spec.Window.LoUnbounded && !spec.Window.HiUnbounded {
		run, err := NewAggCumulative(in, spec, outSpan)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, run)
	}
	return plans
}

func TestAggStrategiesMatchReference(t *testing.T) {
	pairs := map[seq.Pos]float64{1: 4, 2: 2, 4: 6, 5: 1, 8: 9, 9: 3}
	windows := []algebra.Window{
		algebra.Trailing(1), algebra.Trailing(3), algebra.Trailing(6),
		algebra.Range(-2, 1), algebra.Range(1, 3), algebra.Range(-4, -2),
		algebra.Cumulative(),
	}
	funcs := []algebra.AggFunc{algebra.AggSum, algebra.AggAvg, algebra.AggMin, algebra.AggMax, algebra.AggCount}
	span := seq.NewSpan(-2, 13)
	for _, w := range windows {
		for _, f := range funcs {
			spec := algebra.AggSpec{Func: f, Arg: 0, Window: w, As: "v"}
			node := algebra.Base("s", mkSeq(t, pairs))
			agNode, err := algebra.Agg(node, spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := algebra.EvalRange(agNode, span)
			if err != nil {
				t.Fatal(err)
			}
			for _, plan := range aggVariants(t, leaf(t, pairs), spec, span) {
				got, err := seq.Collect(plan.Scan(seq.AllSpan))
				if err != nil {
					t.Fatalf("%s %s %s: %v", plan.Label(), f, w, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %s %s: got %d entries %v, want %d %v", plan.Label(), f, w, len(got), got, len(want), want)
				}
				for i := range got {
					if got[i].Pos != want[i].Pos || !got[i].Rec.Equal(want[i].Rec) {
						t.Fatalf("%s %s %s at %d: %v vs %v", plan.Label(), f, w, got[i].Pos, got[i].Rec, want[i].Rec)
					}
				}
			}
		}
	}
}

func TestAggProbeModes(t *testing.T) {
	pairs := map[seq.Pos]float64{1: 4, 2: 2, 4: 6}
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(3), As: "v"}
	span := seq.NewSpan(1, 6)
	naive, _ := NewAggNaive(leaf(t, pairs), spec, span)
	cached, _ := NewAggCached(leaf(t, pairs), spec, span)
	sliding, _ := NewAggSliding(leaf(t, pairs), spec, span)
	cum, _ := NewAggCumulative(leaf(t, pairs), algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Cumulative(), As: "v"}, span)
	for p := span.Start; p <= span.End; p++ {
		want, err := naive.Probe(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []Plan{cached, sliding} {
			got, err := plan.Probe(p)
			if err != nil || !got.Equal(want) {
				t.Errorf("%s Probe(%d) = %v, want %v", plan.Label(), p, got, want)
			}
		}
		_, err = cum.Probe(p)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAggCachedResidencyBounded(t *testing.T) {
	pairs := make(map[seq.Pos]float64)
	for p := seq.Pos(1); p <= 500; p++ {
		pairs[p] = float64(p)
	}
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(8), As: "v"}
	cached, _ := NewAggCached(leaf(t, pairs), spec, seq.NewSpan(1, 507))
	if _, err := Run(cached, seq.AllSpan, nil); err != nil {
		t.Fatal(err)
	}
	if peak := PeakCacheResidency(cached); peak > 8 {
		t.Errorf("peak residency %d exceeds window size 8 (cache-finiteness violated)", peak)
	}
}

func TestAggConstructorsReject(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 1})
	if _, err := NewAggCached(in, algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Cumulative()}, seq.AllSpan); err == nil {
		t.Error("Cache-A with unbounded window must be rejected")
	}
	if _, err := NewAggSliding(in, algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Cumulative()}, seq.AllSpan); err == nil {
		t.Error("sliding with unbounded window must be rejected")
	}
	if _, err := NewAggCumulative(in, algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Trailing(2)}, seq.AllSpan); err == nil {
		t.Error("cumulative with bounded window must be rejected")
	}
	if _, err := NewAggNaive(in, algebra.AggSpec{Func: algebra.AggSum, Arg: 0, Window: algebra.Range(2, 1)}, seq.AllSpan); err == nil {
		t.Error("empty window must be rejected")
	}
}

func composePlans(t *testing.T, lp, rp map[seq.Pos]float64, predGt float64) []Plan {
	t.Helper()
	schema, err := closeSchema.Concat(closeSchema, "l", "r")
	if err != nil {
		t.Fatal(err)
	}
	lcol, _ := expr.NewCol(schema, "l.close")
	rcol, _ := expr.NewCol(schema, "r.close")
	diff, _ := expr.NewBin(expr.OpSub, lcol, rcol)
	pred, _ := expr.NewBin(expr.OpGt, diff, expr.Literal(seq.Float(predGt)))
	var plans []Plan
	for _, s := range []ComposeStrategy{ComposeLockStep, ComposeStreamLeft, ComposeStreamRight} {
		c, err := NewCompose(NewLeaf("l", mkSeq(t, lp), seq.AllSpan), NewLeaf("r", mkSeq(t, rp), seq.AllSpan), pred, schema, s)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, c)
	}
	return plans
}

func TestComposeStrategiesAgree(t *testing.T) {
	lp := map[seq.Pos]float64{1: 10, 2: 20, 3: 30, 5: 50}
	rp := map[seq.Pos]float64{2: 19, 3: 31, 5: 10, 7: 70}
	plans := composePlans(t, lp, rp, 0)
	want, err := Run(plans[0], seq.AllSpan, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: pos 2 (20>19) and 5 (50>10); pos 3 fails (30<31).
	if want.Count() != 2 {
		t.Fatalf("lockstep result = %v", want.Entries())
	}
	for _, p := range plans[1:] {
		got, err := Run(p, seq.AllSpan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != want.Count() {
			t.Fatalf("%s disagrees: %v vs %v", p.Label(), got.Entries(), want.Entries())
		}
		for i, e := range got.Entries() {
			w := want.Entries()[i]
			if e.Pos != w.Pos || !e.Rec.Equal(w.Rec) {
				t.Fatalf("%s at %d: %v vs %v", p.Label(), e.Pos, e.Rec, w.Rec)
			}
		}
	}
	// Probed access agrees too.
	for p := seq.Pos(0); p <= 8; p++ {
		want, err := plans[0].Probe(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range plans[1:] {
			got, err := plan.Probe(p)
			if err != nil || !got.Equal(want) {
				t.Errorf("%s Probe(%d) = %v, want %v", plan.Label(), p, got, want)
			}
		}
	}
}

func TestComposeMatchesReference(t *testing.T) {
	lp := map[seq.Pos]float64{1: 10, 2: 20, 3: 30}
	rp := map[seq.Pos]float64{2: 19, 3: 31}
	lnode := algebra.Base("l", mkSeq(t, lp))
	rnode := algebra.Base("r", mkSeq(t, rp))
	schema, _ := algebra.ComposeSchema(lnode, rnode, "l", "r")
	lcol, _ := expr.NewCol(schema, "l.close")
	rcol, _ := expr.NewCol(schema, "r.close")
	pred, _ := expr.NewBin(expr.OpGt, lcol, rcol)
	cnode, _ := algebra.Compose(lnode, rnode, pred, "l", "r")
	want, err := algebra.EvalRange(cnode, seq.NewSpan(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range composePlans(t, lp, rp, 0) {
		got, err := seq.Collect(plan.Scan(seq.NewSpan(0, 5)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %v vs %v", plan.Label(), got, want)
		}
		for i := range got {
			if got[i].Pos != want[i].Pos || !got[i].Rec.Equal(want[i].Rec) {
				t.Fatalf("%s: %v vs %v", plan.Label(), got[i], want[i])
			}
		}
	}
}

func TestComposeValidation(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 1})
	if _, err := NewCompose(in, in, nil, closeSchema, ComposeLockStep); err == nil {
		t.Error("arity-mismatched schema must be rejected")
	}
	schema, _ := closeSchema.Concat(closeSchema, "l", "r")
	c, _ := expr.NewCol(schema, "l.close")
	if _, err := NewCompose(in, in, c, schema, ComposeLockStep); err == nil {
		t.Error("non-bool predicate must be rejected")
	}
	for s := ComposeLockStep; s <= ComposeStreamRight; s++ {
		if s.String() == "" {
			t.Error("strategy must render")
		}
	}
}

func TestMaterialize(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 1, 3: 3})
	m, err := NewMaterialize(in, seq.NewSpan(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	wantMap(t, runPlan(t, m, seq.AllSpan), map[seq.Pos]float64{1: 1, 3: 3})
	r, err := m.Probe(3)
	if err != nil || r[0].AsFloat() != 3 {
		t.Errorf("Probe = %v, %v", r, err)
	}
	if _, err := NewMaterialize(in, seq.AllSpan); err == nil {
		t.Error("unbounded materialization must be rejected")
	}
	if m.Label() == "" || len(m.Children()) != 1 {
		t.Error("plan metadata wrong")
	}
}

func TestExplainAndRunProbes(t *testing.T) {
	in := leaf(t, map[seq.Pos]float64{1: 5, 2: 2})
	s := NewSelect(in, gt(t, closeSchema, "close", 3))
	text := Explain(s)
	if !strings.Contains(text, "select") || !strings.Contains(text, "scan(s)") {
		t.Errorf("Explain = %q", text)
	}
	got, err := RunProbes(s, []seq.Pos{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Pos != 1 {
		t.Errorf("RunProbes = %v", got)
	}
}
