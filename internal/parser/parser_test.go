package parser

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/seq"
)

var stockSchema = seq.MustSchema(
	seq.Field{Name: "close", Type: seq.TFloat},
	seq.Field{Name: "volume", Type: seq.TInt},
)

func testCatalog(t *testing.T) Catalog {
	t.Helper()
	mk := func(name string) *algebra.Node {
		return algebra.Base(name, seq.MustMaterialized(stockSchema, []seq.Entry{
			{Pos: 1, Rec: seq.Record{seq.Float(10), seq.Int(100)}},
			{Pos: 2, Rec: seq.Record{seq.Float(20), seq.Int(200)}},
			{Pos: 3, Rec: seq.Record{seq.Float(30), seq.Int(300)}},
		}))
	}
	seqs := map[string]*algebra.Node{"ibm": mk("ibm"), "hp": mk("hp"), "dec": mk("dec")}
	return CatalogFunc(func(name string) (*algebra.Node, bool) {
		n, ok := seqs[name]
		return n, ok
	})
}

func bind(t *testing.T, src string) *algebra.Node {
	t.Helper()
	n, err := Bind(src, testCatalog(t))
	if err != nil {
		t.Fatalf("Bind(%q): %v", src, err)
	}
	return n
}

func bindErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Bind(src, testCatalog(t))
	if err == nil {
		t.Fatalf("Bind(%q) succeeded, want error", src)
	}
	return err
}

func run(t *testing.T, src string, span seq.Span) []seq.Entry {
	t.Helper()
	out, err := algebra.EvalRange(bind(t, src), span)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return out
}

func TestBindBase(t *testing.T) {
	n := bind(t, "ibm")
	if n.Kind != algebra.KindBase || n.Name != "ibm" {
		t.Errorf("node = %v", n)
	}
	bindErr(t, "ghost")
}

func TestBindSelect(t *testing.T) {
	n := bind(t, "select(ibm, close > 15)")
	if n.Kind != algebra.KindSelect {
		t.Fatalf("node = %v", n)
	}
	out := run(t, "select(ibm, close > 15 and volume < 300)", seq.NewSpan(1, 3))
	if len(out) != 1 || out[0].Pos != 2 {
		t.Errorf("result = %v", out)
	}
	bindErr(t, "select(ibm)")
	bindErr(t, "select(ibm, nope > 3)")
	bindErr(t, "select(ibm, close + 1)") // non-bool predicate
}

func TestBindProject(t *testing.T) {
	n := bind(t, "project(ibm, close, close * 2 as twice)")
	if n.Schema.NumFields() != 2 || n.Schema.Field(1).Name != "twice" {
		t.Errorf("schema = %v", n.Schema)
	}
	out := run(t, "project(ibm, close + volume as total)", seq.NewSpan(1, 1))
	if len(out) != 1 || out[0].Rec[0].AsFloat() != 110 {
		t.Errorf("result = %v", out)
	}
}

func TestBindCompose(t *testing.T) {
	n := bind(t, "compose(ibm, hp, ibm.close >= hp.close)")
	if n.Kind != algebra.KindCompose || n.Pred == nil {
		t.Fatalf("node = %v", n)
	}
	// Default qualifiers come from the sequence names.
	if n.Schema.Index("ibm.close") < 0 || n.Schema.Index("hp.volume") < 0 {
		t.Errorf("schema = %v", n.Schema)
	}
	// Explicit aliases.
	n = bind(t, "compose(ibm as a, hp as b, a.close > b.close)")
	if n.Schema.Index("a.close") < 0 {
		t.Errorf("aliased schema = %v", n.Schema)
	}
	bindErr(t, "compose(ibm)")
}

func TestBindOffsets(t *testing.T) {
	n := bind(t, "offset(ibm, -5)")
	if n.Kind != algebra.KindPosOffset || n.Offset != -5 {
		t.Errorf("node = %+v", n)
	}
	n = bind(t, "prev(ibm)")
	if n.Kind != algebra.KindValueOffset || n.Offset != -1 {
		t.Errorf("prev = %+v", n)
	}
	n = bind(t, "prev(ibm, 3)")
	if n.Offset != -3 {
		t.Errorf("prev(,3) = %+v", n)
	}
	n = bind(t, "next(ibm)")
	if n.Offset != 1 {
		t.Errorf("next = %+v", n)
	}
	n = bind(t, "voffset(ibm, -2)")
	if n.Offset != -2 {
		t.Errorf("voffset = %+v", n)
	}
	bindErr(t, "offset(ibm, close)")
	bindErr(t, "prev(ibm, -1)")
	bindErr(t, "voffset(ibm, 0)")
}

func TestBindAggregates(t *testing.T) {
	cases := []struct {
		src    string
		window algebra.Window
		f      algebra.AggFunc
	}{
		{"sum(ibm, close, 6)", algebra.Trailing(6), algebra.AggSum},
		{"avg(ibm, close)", algebra.All(), algebra.AggAvg},
		{"min(ibm, close, -2, 1)", algebra.Range(-2, 1), algebra.AggMin},
		{"rsum(ibm, close)", algebra.Cumulative(), algebra.AggSum},
		{"rcount(ibm)", algebra.Cumulative(), algebra.AggCount},
		{"count(ibm, 3)", algebra.Trailing(3), algebra.AggCount},
		{"count(ibm)", algebra.All(), algebra.AggCount},
	}
	for _, c := range cases {
		n := bind(t, c.src)
		if n.Kind != algebra.KindAgg {
			t.Fatalf("%s: kind = %v", c.src, n.Kind)
		}
		if n.Agg.Func != c.f || n.Agg.Window != c.window {
			t.Errorf("%s: spec = %+v", c.src, n.Agg)
		}
	}
	out := run(t, "sum(ibm, close, 2)", seq.NewSpan(2, 2))
	if len(out) != 1 || out[0].Rec[0].AsFloat() != 30 {
		t.Errorf("sum = %v", out)
	}
	bindErr(t, "sum(ibm)")
	bindErr(t, "sum(ibm, 17, 3)")
	bindErr(t, "sum(ibm, close, 0)")
	bindErr(t, "rsum(ibm, close, 3)")
	bindErr(t, "median(ibm, close)")
}

func TestBindNested(t *testing.T) {
	src := `project(
	    compose(dec, select(compose(ibm, hp, ibm.close >= hp.close), ibm.volume > 0) as ih),
	    dec.close)`
	n := bind(t, src)
	if n.Kind != algebra.KindProject {
		t.Fatalf("kind = %v", n.Kind)
	}
	if len(n.Bases()) != 3 {
		t.Errorf("bases = %d", len(n.Bases()))
	}
}

func TestBindQualifiedSuffix(t *testing.T) {
	// "strength" style suffix resolution through a compose.
	n := bind(t, "select(compose(ibm as a, hp as b), a.volume > b.volume)")
	if n.Kind != algebra.KindSelect {
		t.Fatal("bind failed")
	}
	// Unambiguous suffix works unqualified after a non-colliding project.
	bind(t, "select(project(compose(ibm as a, hp as b), a.close as ac), ac > 1)")
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select(ibm, close >", // truncated
		"select(ibm close)",   // missing comma
		"ibm hp",              // trailing junk
		"'unterminated",
		"select(ibm, close ~ 3)", // bad operator char
		"offset(ibm, 1.5)",       // non-integer offset
		"1.2.3",
	}
	for _, src := range bad {
		if _, err := Bind(src, testCatalog(t)); err == nil {
			t.Errorf("Bind(%q) succeeded, want error", src)
		}
	}
}

func TestParseLiteralsAndComments(t *testing.T) {
	out := run(t, `select(ibm, -- pick the middle record
	    close = 20.0 and not (volume != 200))`, seq.NewSpan(1, 3))
	if len(out) != 1 || out[0].Pos != 2 {
		t.Errorf("result = %v", out)
	}
	// String literals and booleans parse.
	bind(t, `select(ibm, 'x' = "x")`)
	bind(t, "select(ibm, true)")
	bind(t, "select(ibm, not false)")
}

func TestParsePrecedence(t *testing.T) {
	// 2 + 3 * 4 = 14, so close < 14 is false at pos 2 (close 20).
	out := run(t, "select(ibm, close < 2 + 3 * 4)", seq.NewSpan(1, 3))
	if len(out) != 1 || out[0].Pos != 1 {
		t.Errorf("precedence result = %v", out)
	}
	// Parentheses override: (2+3)*4 = 20.
	out = run(t, "select(ibm, close < (2 + 3) * 4)", seq.NewSpan(1, 3))
	if len(out) != 1 {
		t.Errorf("paren result = %v", out)
	}
	// and binds tighter than or.
	n := bind(t, "select(ibm, close > 0 or close > 1 and close > 2)")
	if !strings.Contains(n.Pred.String(), "or") {
		t.Errorf("pred = %v", n.Pred)
	}
	// Unary minus.
	out = run(t, "select(ibm, -close < -25)", seq.NewSpan(1, 3))
	if len(out) != 1 || out[0].Pos != 3 {
		t.Errorf("unary minus result = %v", out)
	}
}

func TestParseModuloAndNe(t *testing.T) {
	out := run(t, "select(ibm, volume % 200 = 0)", seq.NewSpan(1, 3))
	if len(out) != 1 || out[0].Pos != 2 {
		t.Errorf("modulo result = %v", out)
	}
	out = run(t, "select(ibm, volume <> 200)", seq.NewSpan(1, 3))
	if len(out) != 2 {
		t.Errorf("<> result = %v", out)
	}
}

func TestBindCollapseExpand(t *testing.T) {
	n := bind(t, "collapse(ibm, avg(close), 7)")
	if n.Kind != algebra.KindCollapse || n.Factor != 7 || n.Agg.Func != algebra.AggAvg {
		t.Errorf("collapse = %+v", n)
	}
	if n.Schema.Field(0).Name != "avg" {
		t.Errorf("schema = %v", n.Schema)
	}
	n = bind(t, "collapse(ibm, count(), 5)")
	if n.Agg.Func != algebra.AggCount || n.Agg.Arg != -1 {
		t.Errorf("count collapse = %+v", n.Agg)
	}
	n = bind(t, "collapse(ibm, sum(volume) as weekly_vol, 7)")
	if n.Schema.Field(0).Name != "weekly_vol" {
		t.Errorf("aliased collapse schema = %v", n.Schema)
	}
	n = bind(t, "expand(ibm, 3)")
	if n.Kind != algebra.KindExpand || n.Factor != 3 {
		t.Errorf("expand = %+v", n)
	}
	// Weekly average expanded back to daily, composed with the daily
	// series: the motivating §5.1 use.
	bind(t, "select(compose(ibm as d, expand(collapse(ibm, avg(close), 7), 7) as w), d.close > w.avg)")

	bindErr(t, "collapse(ibm, close, 7)")         // not an aggregate call
	bindErr(t, "collapse(ibm, median(close), 7)") // unknown aggregate
	bindErr(t, "collapse(ibm, avg(close, 2), 7)") // too many agg args
	bindErr(t, "collapse(ibm, avg(close), 0)")    // bad factor (algebra rejects)
	bindErr(t, "collapse(ibm, avg(nope), 7)")     // unknown attribute
	bindErr(t, "expand(ibm)")                     // missing factor
	bindErr(t, "expand(ibm, close)")              // non-integer factor
}

func TestBindCollapseEval(t *testing.T) {
	// ibm has close 10,20,30 at positions 1,2,3; collapse k=2: group 0
	// covers {0,1} -> avg 10, group 1 covers {2,3} -> avg 25.
	out := run(t, "collapse(ibm, avg(close), 2)", seq.NewSpan(0, 1))
	if len(out) != 2 || out[0].Rec[0].AsFloat() != 10 || out[1].Rec[0].AsFloat() != 25 {
		t.Errorf("collapse eval = %v", out)
	}
}

func TestScalarFunctionsInSEQL(t *testing.T) {
	// abs in a predicate.
	out := run(t, "select(ibm, abs(close - 20.0) < 5.0)", seq.NewSpan(1, 3))
	if len(out) != 1 || out[0].Pos != 2 {
		t.Errorf("abs result = %v", out)
	}
	// min/max as scalar functions inside project; min/max as aggregate
	// operators in node position still work.
	out = run(t, "project(ibm, min(close, 15.0) as capped)", seq.NewSpan(1, 3))
	if len(out) != 3 || out[2].Rec[0].AsFloat() != 15 {
		t.Errorf("capped = %v", out)
	}
	n := bind(t, "min(ibm, close, 2)")
	if n.Kind != algebra.KindAgg {
		t.Errorf("node-position min must be the aggregate, got %v", n.Kind)
	}
	// floor/ceil/round.
	out = run(t, "select(ibm, floor(close / 7.0) = 2)", seq.NewSpan(1, 3))
	if len(out) != 1 || out[0].Pos != 2 {
		t.Errorf("floor result = %v", out)
	}
	// Unknown scalar function.
	bindErr(t, "select(ibm, median(close) > 1)")
	// Wrong arity.
	bindErr(t, "select(ibm, abs(close, volume) > 1)")
	// Nested operators still rejected in scalar position.
	bindErr(t, "select(ibm, prev(ibm) > 1)")
}

func TestShapeKey(t *testing.T) {
	for _, c := range []struct {
		src, key string
		slots    []seq.Value
	}{
		{"select(offset(ibm, -3), close > 0.5 and volume > 4000)",
			"select(offset(ibm, -3), ((close > ?f) and (volume > ?i)))",
			[]seq.Value{seq.Float(0.5), seq.Int(4000)}},
		{"select(offset(ibm, -3), close > 0.25 and volume > 7)",
			"select(offset(ibm, -3), ((close > ?f) and (volume > ?i)))",
			[]seq.Value{seq.Float(0.25), seq.Int(7)}},
		// A minus before a number is the literal's sign; before anything
		// else it stays an operator.
		{"select(ibm, close > -0.5 and volume > -4000)",
			"select(ibm, ((close > ?f) and (volume > ?i)))",
			[]seq.Value{seq.Float(-0.5), seq.Int(-4000)}},
		{"select(ibm, volume > -9223372036854775808)",
			"select(ibm, (volume > ?i))",
			[]seq.Value{seq.Int(math.MinInt64)}},
		{"select(ibm, volume > - -3 and close > -(2) - -1)",
			"select(ibm, ((volume > -(?i)) and (close > (-(?i) - ?i))))",
			[]seq.Value{seq.Int(-3), seq.Int(2), seq.Int(-1)}},
		{"offset(ibm, - -3)", "offset(ibm, -(-3))", nil},
		{"sum(ibm, close, 6)", "sum(ibm, close, 6)", nil},
		{"collapse(ibm, avg(close) as a, 7)", "collapse(ibm, avg(close) as a, 7)", nil},
		{"project(compose(ibm, hp, ibm.close > 1), abs(hp.close - 2) as d, 'x')",
			"project(compose(ibm, hp, (ibm.close > ?i)), abs((hp.close - ?i)) as d, ?s)",
			[]seq.Value{seq.Int(1), seq.Int(2), seq.Str("x")}},
	} {
		sh, err := ParseShape(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Key != c.key || !reflect.DeepEqual(sh.Slots, c.slots) {
			t.Errorf("%s: key %q slots %v, want %q %v", c.src, sh.Key, sh.Slots, c.key, c.slots)
		}
	}
}
