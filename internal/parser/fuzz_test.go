package parser

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/seq"
)

// FuzzBind checks that arbitrary input never panics the lexer, parser or
// binder — it must either bind cleanly or return an error.
func FuzzBind(f *testing.F) {
	seeds := []string{
		"select(ibm, close > 7.0)",
		"project(compose(ibm, hp, ibm.close > hp.close), ibm.close)",
		"sum(prev(ibm), close, 6)",
		"collapse(ibm, avg(close), 7)",
		"expand(ibm, 3)",
		"rsum(ibm, close)",
		"select(ibm, 'str' = \"str\" and not false)",
		"offset(ibm, -5)",
		"offset(ibm, - -5)",
		"select(ibm, close > -2.5 and volume < -9223372036854775808)",
		"project(ibm, -close, - -1, -(2))",
		"((((",
		"select(ibm, close > )",
		"1.2.3.4",
		"ibm as as as",
		"compose(ibm", "avg()", "-- comment only",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := seq.MustSchema(
		seq.Field{Name: "close", Type: seq.TFloat},
		seq.Field{Name: "volume", Type: seq.TInt},
	)
	m := seq.MustMaterialized(schema, []seq.Entry{
		{Pos: 1, Rec: seq.Record{seq.Float(1), seq.Int(1)}},
	})
	cat := CatalogFunc(func(name string) (*algebra.Node, bool) {
		if name == "ibm" || name == "hp" {
			return algebra.Base(name, m), true
		}
		return nil, false
	})
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Bind(src, cat)
		if err == nil && n == nil {
			t.Fatal("nil node without error")
		}
	})
}

// planShapes are the sixteen query shapes of the benchmark's plan_bound
// workload, with its default literal: 4- to 6-way compose queries under
// select, offset and project.
var planShapes = []string{
	"select(compose(compose(p4, p5), compose(compose(p0, p1), compose(p2, p3))), p4.close > p0.close and p1.close > 0.5)",
	"select(offset(compose(compose(p4, p5), compose(compose(p0, p1), compose(p2, p3))), -3), p0.close > p5.close and p4.close > 0.5)",
	"select(compose(compose(p0, p3), compose(compose(p1, p4), compose(p2, p5))), p0.close > p4.close and p2.volume > 4000 and p5.close > 0.5)",
	"select(compose(p4, compose(compose(p0, p1), compose(p2, p3))), p4.close > p0.close and p1.close > 0.5)",
	"select(compose(p5, compose(compose(p0, p1), compose(p2, p4))), p5.close > p4.close and p0.close > 0.5)",
	"select(compose(p3, compose(compose(p1, p2), compose(p4, p5))), p3.close > p2.close and p1.volume > 5000 and p4.close > 0.5)",
	"select(offset(compose(p2, compose(compose(p0, p1), compose(p3, p4))), 2), p2.close > p3.close and p0.close > 0.5)",
	"select(compose(p0, compose(compose(p2, p3), compose(p4, p5))), p0.close > p5.close and p2.close > p3.close and p4.close > 0.5)",
	"select(compose(compose(p0, p1), compose(p2, p3)), p0.close > p1.close and p3.close > 0.5)",
	"select(offset(compose(compose(p1, p2), compose(p3, p4)), 2), p1.close > p3.close and p2.close > 0.5)",
	"select(compose(compose(p0, offset(p0, -5) as w), compose(p1, p4)), p0.close > w.close and p1.close > 0.5)",
	"select(compose(compose(p1, p3), compose(p4, p5)), p1.close > p4.close and p3.close > 0.5)",
	"project(select(compose(compose(p0, p1) as l, compose(p2, p3) as r), p0.close > p1.close and p2.close > 0.5), p0.close, p3.volume)",
	"project(select(offset(compose(compose(p4, p5) as t, compose(compose(p0, p1) as l, compose(p2, p3) as r) as m), -3), p0.close > p5.close and p4.close > 0.5), p1.close - p2.close as spread, p3.volume)",
	"project(select(compose(compose(p0, offset(p1, -1) as y) as l, compose(p2, p3) as r), p0.close > y.close and p2.close > 0.5), p0.close - y.close as delta)",
	"project(select(compose(compose(p2, p3) as l, compose(compose(p0, p1) as q, compose(p4, p5) as r) as m), p2.close > p0.close and p3.close > p4.close and p1.close > 0.5), p5.close, p2.volume)",
}

// FuzzPlanKey checks the two properties a plan cache keyed on shapes
// rests on: a text's own slot values, written back into its key, give
// the key back and bind to the tree the text binds to; and another text
// with the same key — the key with other values written in — binds to
// the tree the shape binds with those values. Trees compare with slot
// tags cleared, so they may differ only in slot literals.
func FuzzPlanKey(f *testing.F) {
	for _, s := range planShapes {
		f.Add(s)
	}
	for _, s := range []string{
		"select(ibm, close > 7.0 and volume < 12 or not (close = 3))",
		"project(ibm, abs(close - 2) as d, volume * 2, 'x')",
		"select(ibm, 'str' = \"s\\\"t\")",
		"sum(select(ibm, close > 1), close, 6)",
		"collapse(select(ibm, volume > 3), avg(close), 7)",
		"select(ibm, close > -5)",
		"select(ibm, close > 1 + 2)",
		"select(offset(ibm, -2), close > -0.5 and volume > -9223372036854775808)",
		"select(ibm, volume - -3 > - -4 and close * -1.5 < -(2))",
		"project(offset(ibm, - -1), -volume as n, -7 as k)",
	} {
		f.Add(s)
	}
	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, src string) {
		sh, err := ParseShape(src)
		if _, perr := Parse(src); (err == nil) != (perr == nil) {
			t.Fatalf("ParseShape error %v, Parse error %v", err, perr)
		}
		if err != nil {
			return
		}
		want, wantErr := Bind(src, cat)
		got, gotErr := sh.Bind(cat, sh.Slots)
		sameTree(t, "the text's own values", got, gotErr, want, wantErr)
		sameKey(t, fillKey(sh.Key, sh.Slots), sh)

		other := make([]seq.Value, len(sh.Slots))
		for i, v := range sh.Slots {
			switch v.T {
			case seq.TInt:
				other[i] = seq.Int(v.AsInt() ^ 1)
			case seq.TFloat:
				other[i] = seq.Float(v.AsFloat()/2 + 1)
			default:
				other[i] = seq.Str(v.AsStr() + "x")
			}
		}
		text := fillKey(sh.Key, other)
		osh := sameKey(t, text, sh)
		if !slices.Equal(osh.Slots, other) {
			t.Fatalf("%q: slots %v, want %v", text, osh.Slots, other)
		}
		want, wantErr = Bind(text, cat)
		got, gotErr = sh.Bind(cat, other)
		sameTree(t, "other values", got, gotErr, want, wantErr)
	})
}

// fuzzCatalog resolves ibm, hp and p0..p5 to one-record sequences with
// the benchmark's stock columns.
func fuzzCatalog() Catalog {
	schema := seq.MustSchema(
		seq.Field{Name: "close", Type: seq.TFloat},
		seq.Field{Name: "volume", Type: seq.TInt},
	)
	m := seq.MustMaterialized(schema, []seq.Entry{
		{Pos: 1, Rec: seq.Record{seq.Float(1), seq.Int(1)}},
	})
	return CatalogFunc(func(name string) (*algebra.Node, bool) {
		switch name {
		case "ibm", "hp", "p0", "p1", "p2", "p3", "p4", "p5":
			return algebra.Base(name, m), true
		}
		return nil, false
	})
}

// sameKey parses text and checks that its key is sh's.
func sameKey(t *testing.T, text string, sh *Shape) *Shape {
	t.Helper()
	osh, err := ParseShape(text)
	if err != nil {
		t.Fatalf("key %q written back as %q: %v", sh.Key, text, err)
	}
	if osh.Key != sh.Key {
		t.Fatalf("key %q written back as %q has key %q", sh.Key, text, osh.Key)
	}
	return osh
}

// sameTree checks that two bindings agree: both fail, or both bind to
// trees equal up to slot tags.
func sameTree(t *testing.T, what string, got *algebra.Node, gotErr error, want *algebra.Node, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: shape binds with error %v, text with %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	clearSlots(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: shape binds to\n%v\ntext to\n%v", what, got, want)
	}
}

func clearSlots(n *algebra.Node) {
	clear := func(l *expr.Lit) { l.Slot = 0 }
	if n.Pred != nil {
		expr.VisitSlots(n.Pred, clear)
	}
	for _, it := range n.Items {
		expr.VisitSlots(it.Expr, clear)
	}
	for _, in := range n.Inputs {
		clearSlots(in)
	}
}

// fillKey writes vals into the slots of key, giving a SEQL text.
func fillKey(key string, vals []seq.Value) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case c == '"':
			// A string outside any slot, copied through its closing quote.
			b.WriteByte(c)
			for i++; key[i] != '"'; i++ {
				if key[i] == '\\' {
					b.WriteByte(key[i])
					i++
				}
				b.WriteByte(key[i])
			}
			b.WriteByte('"')
		case c == '?':
			v := vals[0]
			vals = vals[1:]
			i++ // the slot's type letter
			switch v.T {
			case seq.TInt:
				b.WriteString(strconv.FormatInt(v.AsInt(), 10))
			case seq.TFloat:
				f := strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
				if !strings.Contains(f, ".") {
					f += ".0"
				}
				b.WriteString(f)
			default:
				writeQuoted(&b, v.AsStr())
			}
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
