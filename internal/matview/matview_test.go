package matview

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/canon"
	"repro/internal/expr"
	"repro/internal/seq"
)

func testBase(t *testing.T, name string) *algebra.Node {
	t.Helper()
	schema := seq.MustSchema(
		seq.Field{Name: "v", Type: seq.TFloat},
		seq.Field{Name: "w", Type: seq.TInt},
	)
	var entries []seq.Entry
	for p := int64(1); p <= 20; p++ {
		entries = append(entries, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p) / 2), seq.Int(p)}})
	}
	m, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.Base(name, m)
}

func col(t *testing.T, n *algebra.Node, name string) *expr.Col {
	t.Helper()
	c, err := expr.NewCol(n.Schema, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func gt(t *testing.T, l, r expr.Expr) expr.Expr {
	t.Helper()
	e, err := expr.NewBin(expr.OpGt, l, r)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sel(t *testing.T, in *algebra.Node, pred expr.Expr) *algebra.Node {
	t.Helper()
	n, err := algebra.Select(in, pred)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// materialize evaluates the block over span and registers it.
func materialize(t *testing.T, r *Registry, name string, n *algebra.Node, span seq.Span) *View {
	t.Helper()
	entries, err := algebra.EvalRange(n, span)
	if err != nil {
		t.Fatal(err)
	}
	kept := entries[:0]
	for _, e := range entries {
		if !e.Rec.IsNull() {
			kept = append(kept, e)
		}
	}
	data, err := seq.NewMaterialized(n.Schema, kept)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.RegisterAt(name, n, data, span, 1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func canonOf(t *testing.T, n *algebra.Node) *canon.Canon {
	t.Helper()
	c, err := canon.Canonicalize(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExactMatchModuloPermutation(t *testing.T) {
	r := New()
	base := testBase(t, "s")
	block := sel(t, base, gt(t, col(t, base, "v"), expr.Literal(seq.Float(3))))
	v := materialize(t, r, "hot", block, seq.NewSpan(1, 20))

	// The same block asked with its output columns permuted by a
	// projection still matches; the ColMap undoes the permutation.
	qBase := testBase(t, "s")
	qSel := sel(t, qBase, gt(t, col(t, qBase, "v"), expr.Literal(seq.Float(3))))
	perm, err := algebra.Project(qSel, []algebra.ProjItem{
		{Expr: col(t, qSel, "w"), Name: "w"},
		{Expr: col(t, qSel, "v"), Name: "v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.Match(canonOf(t, perm), seq.NewSpan(5, 15))
	if !ok {
		t.Fatal("permuted block did not match the view")
	}
	if m.View != v || len(m.Residual) != 0 {
		t.Fatalf("want exact match of %q, got view=%q residual=%v", v.Name, m.View.Name, m.Residual)
	}
	// Block col 0 is w (stored col 1), block col 1 is v (stored col 0).
	if m.ColMap[0] != 1 || m.ColMap[1] != 0 {
		t.Fatalf("ColMap = %v, want [1 0]", m.ColMap)
	}
}

func TestConjunctSubsumption(t *testing.T) {
	r := New()
	base := testBase(t, "s")
	pv := gt(t, col(t, base, "v"), expr.Literal(seq.Float(3)))
	materialize(t, r, "wide", sel(t, base, pv), seq.NewSpan(1, 20))

	// Query adds a conjunct: matches with that conjunct as residual.
	qBase := testBase(t, "s")
	pq1 := gt(t, col(t, qBase, "v"), expr.Literal(seq.Float(3)))
	pq2 := gt(t, col(t, qBase, "w"), expr.Literal(seq.Int(10)))
	and, err := expr.And(pq1, pq2)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.Match(canonOf(t, sel(t, qBase, and)), seq.NewSpan(1, 20))
	if !ok {
		t.Fatal("superset-conjunct query did not match")
	}
	if len(m.Residual) != 1 {
		t.Fatalf("want 1 residual conjunct, got %v", m.Residual)
	}
	// The residual references the stored schema: column 1 (w).
	found := false
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		switch v := e.(type) {
		case *expr.Col:
			if v.Index == 1 {
				found = true
			}
		case *expr.Bin:
			walk(v.L)
			walk(v.R)
		}
	}
	walk(m.Residual[0])
	if !found {
		t.Fatalf("residual %v does not reference stored column 1", m.Residual[0])
	}

	// The reverse — view filters MORE than the query — must not match.
	bare := testBase(t, "s")
	if _, ok := r.Match(canonOf(t, sel(t, bare, gt(t, col(t, bare, "w"), expr.Literal(seq.Int(10))))), seq.NewSpan(1, 20)); ok {
		t.Fatal("view with extra conjunct wrongly matched a weaker query")
	}
}

func TestUnfilteredViewServesSelection(t *testing.T) {
	r := New()
	base := testBase(t, "s")
	shifted, err := algebra.PosOffset(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	materialize(t, r, "shift2", shifted, seq.NewSpan(1, 22))

	qBase := testBase(t, "s")
	qShift, err := algebra.PosOffset(qBase, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := sel(t, qShift, gt(t, col(t, qShift, "v"), expr.Literal(seq.Float(5))))
	m, ok := r.Match(canonOf(t, q), seq.NewSpan(3, 20))
	if !ok {
		t.Fatal("selection over a materialized unfiltered block did not match")
	}
	if len(m.Residual) != 1 {
		t.Fatalf("want the whole predicate as residual, got %v", m.Residual)
	}
}

func TestSpanMustCover(t *testing.T) {
	r := New()
	base := testBase(t, "s")
	block := sel(t, base, gt(t, col(t, base, "v"), expr.Literal(seq.Float(0))))
	v := materialize(t, r, "narrow", block, seq.NewSpan(5, 10))

	c := canonOf(t, block)
	if _, ok := r.Match(c, seq.NewSpan(1, 20)); ok {
		t.Fatal("view with short span wrongly matched")
	}
	if v.Misses() != 1 {
		t.Fatalf("span-failing structural match should record a miss, got %d", v.Misses())
	}
	if m, ok := r.Match(c, seq.NewSpan(6, 9)); !ok || m.View != v {
		t.Fatal("covered sub-span did not match")
	}
}

func TestBestMatchFewestResiduals(t *testing.T) {
	r := New()
	b1 := testBase(t, "s")
	materialize(t, r, "loose", sel(t, b1, gt(t, col(t, b1, "v"), expr.Literal(seq.Float(3)))), seq.NewSpan(1, 20))
	b2 := testBase(t, "s")
	p1 := gt(t, col(t, b2, "v"), expr.Literal(seq.Float(3)))
	p2 := gt(t, col(t, b2, "w"), expr.Literal(seq.Int(10)))
	and, err := expr.And(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	materialize(t, r, "tight", sel(t, b2, and), seq.NewSpan(1, 20))

	m, ok := r.Match(canonOf(t, sel(t, b2, and)), seq.NewSpan(1, 20))
	if !ok {
		t.Fatal("no match")
	}
	if m.View.Name != "tight" || len(m.Residual) != 0 {
		t.Fatalf("want exact view %q, got %q with residual %v", "tight", m.View.Name, m.Residual)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := New()
	base := testBase(t, "quakes")
	block := sel(t, base, gt(t, col(t, base, "v"), expr.Literal(seq.Float(1))))
	materialize(t, r, "a", block, seq.NewSpan(1, 20))

	if _, err := r.RegisterAt("a", block, seq.MustMaterialized(block.Schema, nil), seq.NewSpan(1, 20), 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := r.RegisterAt("b", testBase(t, "quakes"), seq.MustMaterialized(base.Schema, nil), seq.NewSpan(1, 20), 1); err == nil {
		t.Fatal("bare base registered as a view")
	}

	other := testBase(t, "volcanos")
	materialize(t, r, "c", sel(t, other, gt(t, col(t, other, "v"), expr.Literal(seq.Float(1)))), seq.NewSpan(1, 20))
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}

	if marked := r.InvalidateBaseFrom("quakes", 2); len(marked) != 1 || marked[0] != "a" {
		t.Fatalf("InvalidateBaseFrom marked %v, want [a]", marked)
	}
	if dropped := r.GC(2); len(dropped) != 1 || dropped[0] != "a" {
		t.Fatalf("GC dropped %v, want [a]", dropped)
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("invalidated view still present")
	}
	if !r.Drop("c") || r.Drop("c") {
		t.Fatal("Drop misbehaved")
	}
	if r.Len() != 0 {
		t.Fatalf("registry not empty: %d", r.Len())
	}
}
