package core

import (
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/parser"
	"repro/internal/seq"
	"repro/internal/storage"
)

// TestRebinds: a plan serves other slot values exactly when planning
// them would not differ, and WithLiterals then gives the plan planning
// them gives, leaving the original untouched.
func TestRebinds(t *testing.T) {
	positions := make([]seq.Pos, 100)
	for i := range positions {
		positions[i] = seq.Pos(i + 1)
	}
	cat := parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		if name != "s" && name != "u" {
			return nil, false
		}
		n, _ := mkStore(t, name, storage.KindDense, seq.EmptySpan, positions...)
		return n, true
	})
	span := seq.NewSpan(1, 100)
	plan := func(sh *parser.Shape, vals []seq.Value) *Result {
		t.Helper()
		root, err := sh.Bind(cat, vals)
		if err != nil {
			t.Fatal(err)
		}
		return optimize(t, root, span, Options{Verify: true})
	}
	for _, c := range []struct {
		seql    string
		other   []seq.Value
		rebinds bool
	}{
		// close holds 1..100: below its range "close >" estimates 1.
		{"select(s, close > 0.5)", []seq.Value{seq.Float(0.25)}, true},
		{"select(s, close > 50.5)", []seq.Value{seq.Float(60.5)}, false},
		{"select(s, close < 200)", []seq.Value{seq.Int(300)}, true},
		{"select(compose(s, u), s.close > u.close + 1 and u.close > 0.5)", []seq.Value{seq.Int(7), seq.Float(0.75)}, true},
		{"project(s, close * 2 as c)", []seq.Value{seq.Int(3)}, true},
		// Folding consumes the slots of 200 + 1.
		{"select(s, close > 200 + 1)", []seq.Value{seq.Int(300), seq.Int(1)}, false},
		// A slot count or type that is not the shape's.
		{"select(s, close > 0.5)", nil, false},
	} {
		sh, err := parser.ParseShape(c.seql)
		if err != nil {
			t.Fatal(err)
		}
		res := plan(sh, sh.Slots)
		if got := res.Rebinds(c.other); got != c.rebinds {
			t.Errorf("%s with %v: Rebinds = %v, want %v", c.seql, c.other, got, c.rebinds)
		}
		if !c.rebinds {
			continue
		}
		before := res.ExplainText("plan")
		got, err := res.WithLiterals(c.other)
		if err != nil {
			t.Fatal(err)
		}
		want := plan(sh, c.other)
		if g, w := got.ExplainText("plan"), want.ExplainText("plan"); g != w {
			t.Errorf("%s with %v: substituted plan\n%s\nwant\n%s", c.seql, c.other, g, w)
		}
		if g, w := got.Rewritten.String(), want.Rewritten.String(); g != w {
			t.Errorf("%s with %v: substituted query\n%s\nwant\n%s", c.seql, c.other, g, w)
		}
		// The replanner maps plan nodes back to the query it replans.
		inTree := make(map[*algebra.Node]bool)
		var walk func(n *algebra.Node)
		walk = func(n *algebra.Node) {
			inTree[n] = true
			for _, in := range n.Inputs {
				walk(in)
			}
		}
		walk(got.Rewritten)
		for _, n := range got.nodes {
			if !inTree[n] {
				t.Errorf("%s with %v: a plan node maps to %s, outside the substituted query", c.seql, c.other, n.Kind)
			}
		}
		if err := got.Verify(); err != nil {
			t.Errorf("%s with %v: %v", c.seql, c.other, err)
		}
		gotOut, err := got.Run()
		if err != nil {
			t.Fatal(err)
		}
		wantOut, err := want.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotOut.Entries(), wantOut.Entries()) {
			t.Errorf("%s with %v: %d entries, want %d", c.seql, c.other, gotOut.Count(), wantOut.Count())
		}
		if after := res.ExplainText("plan"); after != before {
			t.Errorf("%s: WithLiterals changed the original plan", c.seql)
		}
	}
}
