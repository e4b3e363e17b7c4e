package planlint_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/planlint"
	"repro/internal/seq"
)

func viewFixture(t *testing.T) (*matview.Registry, *matview.View, *algebra.Node) {
	t.Helper()
	schema := seq.MustSchema(
		seq.Field{Name: "v", Type: seq.TFloat},
		seq.Field{Name: "w", Type: seq.TInt},
	)
	var entries []seq.Entry
	for p := int64(1); p <= 20; p++ {
		entries = append(entries, seq.Entry{Pos: p, Rec: seq.Record{seq.Float(float64(p)), seq.Int(p)}})
	}
	data, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	base := algebra.Base("s", data)
	c, err := expr.NewCol(base.Schema, "v")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.NewBin(expr.OpGt, c, expr.Literal(seq.Float(5)))
	if err != nil {
		t.Fatal(err)
	}
	block, err := algebra.Select(base, pred)
	if err != nil {
		t.Fatal(err)
	}
	out, err := algebra.EvalRange(block, seq.NewSpan(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	kept := out[:0]
	for _, e := range out {
		if !e.Rec.IsNull() {
			kept = append(kept, e)
		}
	}
	viewData, err := seq.NewMaterialized(block.Schema, kept)
	if err != nil {
		t.Fatal(err)
	}
	reg := matview.New()
	v, err := reg.RegisterAt("hot", block, viewData, seq.NewSpan(1, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	return reg, v, block
}

func TestVerifyMatviewsClean(t *testing.T) {
	_, v, block := viewFixture(t)
	sub := &matview.Substitution{
		View: v, Block: block, Need: seq.NewSpan(5, 15),
		ColMap: []int{0, 1}, Stream: true,
	}
	if issues := planlint.VerifyMatviews([]*matview.Substitution{sub}); len(issues) != 0 {
		t.Fatalf("clean substitution flagged:\n%v", planlint.Error(issues))
	}
}

func TestVerifyMatviewsCatchesViolations(t *testing.T) {
	_, v, block := viewFixture(t)

	// Span not covered.
	short := &matview.Substitution{
		View: v, Block: block, Need: seq.NewSpan(0, 30), ColMap: []int{0, 1},
	}
	issues := planlint.VerifyMatviews([]*matview.Substitution{short})
	if !hasInvariant(issues, "matview/span-covers") {
		t.Fatalf("span violation not reported:\n%v", planlint.Error(issues))
	}

	// Column map not a permutation.
	badMap := &matview.Substitution{
		View: v, Block: block, Need: seq.NewSpan(1, 20), ColMap: []int{0, 0},
	}
	issues = planlint.VerifyMatviews([]*matview.Substitution{badMap})
	if !hasInvariant(issues, "matview/canonical-equal") {
		t.Fatalf("bad column map not reported:\n%v", planlint.Error(issues))
	}

	// Residual changes the block: an extra conjunct the block does not
	// have makes the reconstruction canonically different.
	extra, err := expr.NewBin(expr.OpGt,
		&expr.Col{Index: 1, Name: "w", Typ: seq.TInt}, expr.Literal(seq.Int(10)))
	if err != nil {
		t.Fatal(err)
	}
	wrong := &matview.Substitution{
		View: v, Block: block, Need: seq.NewSpan(1, 20),
		Residual: []expr.Expr{extra}, ColMap: []int{0, 1},
	}
	issues = planlint.VerifyMatviews([]*matview.Substitution{wrong})
	if !hasInvariant(issues, "matview/canonical-equal") {
		t.Fatalf("canonical mismatch not reported:\n%v", planlint.Error(issues))
	}
}

// Partial substitutions: the covered prefix must be a genuine prefix of
// the access span and lie inside the view's span; the uncovered tail
// needs no view guarantee.
func TestVerifyMatviewsPartial(t *testing.T) {
	_, v, block := viewFixture(t)

	clean := &matview.Substitution{
		View: v, Block: block, Need: seq.NewSpan(5, 30),
		Covered: seq.NewSpan(5, 20), ColMap: []int{0, 1}, Stream: true,
	}
	if issues := planlint.VerifyMatviews([]*matview.Substitution{clean}); len(issues) != 0 {
		t.Fatalf("clean partial substitution flagged:\n%v", planlint.Error(issues))
	}

	// Covered span starts past the access span's start: not a prefix.
	notPrefix := &matview.Substitution{
		View: v, Block: block, Need: seq.NewSpan(5, 30),
		Covered: seq.NewSpan(10, 20), ColMap: []int{0, 1},
	}
	issues := planlint.VerifyMatviews([]*matview.Substitution{notPrefix})
	if !hasInvariant(issues, "matview/span-covers") {
		t.Fatalf("non-prefix covered span not reported:\n%v", planlint.Error(issues))
	}

	// Covered span claims positions beyond the view's valid span.
	beyond := &matview.Substitution{
		View: v, Block: block, Need: seq.NewSpan(5, 30),
		Covered: seq.NewSpan(5, 25), ColMap: []int{0, 1},
	}
	issues = planlint.VerifyMatviews([]*matview.Substitution{beyond})
	if !hasInvariant(issues, "matview/span-covers") {
		t.Fatalf("covered-beyond-view-span not reported:\n%v", planlint.Error(issues))
	}
}

func hasInvariant(issues []planlint.Issue, invariant string) bool {
	for _, is := range issues {
		if strings.HasPrefix(is.Invariant, invariant) {
			return true
		}
	}
	return false
}
