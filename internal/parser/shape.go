package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/seq"
)

// Shape is a parsed SEQL text with its literal operands lifted out into
// typed slots, so that texts differing only in those literals share one
// Key. A slot is a number or string literal inside a select predicate, a
// project expression or a compose predicate. Operator arguments — offset
// amounts, window widths, collapse and expand factors — stay in the key:
// they shape the plan, where a slot only feeds the predicate it sits in
// (and, through the selectivity estimator, the plan's costs).
type Shape struct {
	// Key is the text written back from its syntax tree with each slot
	// as ?i, ?f or ?s (int, float, string). Equal keys mean equal trees
	// up to slot values.
	Key string
	// Slots are the text's own slot values, in key order.
	Slots []seq.Value
	ast   Ast
}

// ParseShape parses src once and derives its key and slot values; Bind
// binds the same parse.
func ParseShape(src string) (*Shape, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	s := &Shape{ast: ast}
	var b strings.Builder
	s.write(&b, ast, false)
	s.Key = b.String()
	return s, nil
}

// Bind binds the parsed text against the catalog with vals in its slots
// (s.Slots for the text itself). Each slot binds to a literal tagged
// with its slot number (expr.Lit.Slot). vals must match the slots in
// number and type.
func (s *Shape) Bind(cat Catalog, vals []seq.Value) (*algebra.Node, error) {
	if len(vals) != len(s.Slots) {
		return nil, fmt.Errorf("parser: %d slot values for %d slots", len(vals), len(s.Slots))
	}
	for i, v := range vals {
		if v.T != s.Slots[i].T {
			return nil, fmt.Errorf("parser: slot %d holds a %s, got a %s", i+1, s.Slots[i].T, v.T)
		}
	}
	b := &binder{cat: cat, slots: vals}
	return b.node(s.ast)
}

// scalarArg reports whether argument i of a call to the named operator
// is a scalar expression, as the binder reads it: a select or compose
// predicate or a project item. Calls inside a scalar are scalar
// functions, all of whose arguments are scalar.
func scalarArg(name string, i int) bool {
	switch strings.ToLower(name) {
	case "select":
		return i == 1
	case "compose":
		return i == 2
	case "project":
		return i >= 1
	}
	return false
}

// write renders a in SEQL syntax, fully parenthesized, lifting each
// literal in a scalar context into the next slot. Parse has checked
// every number, so the conversions cannot fail.
func (s *Shape) write(b *strings.Builder, a Ast, scalar bool) {
	switch v := a.(type) {
	case *AstIdent:
		b.WriteString(strings.Join(v.Parts, "."))
	case *AstNumber:
		switch {
		case !scalar:
			b.WriteString(v.Text)
			return
		case v.IsInt:
			n, _ := strconv.ParseInt(v.Text, 10, 64)
			s.Slots = append(s.Slots, seq.Int(n))
			b.WriteString("?i")
		default:
			f, _ := strconv.ParseFloat(v.Text, 64)
			s.Slots = append(s.Slots, seq.Float(f))
			b.WriteString("?f")
		}
		v.Slot = len(s.Slots)
	case *AstString:
		if !scalar {
			writeQuoted(b, v.Val)
			return
		}
		s.Slots = append(s.Slots, seq.Str(v.Val))
		v.Slot = len(s.Slots)
		b.WriteString("?s")
	case *AstBinary:
		b.WriteByte('(')
		s.write(b, v.L, scalar)
		b.WriteString(" " + v.Op + " ")
		s.write(b, v.R, scalar)
		b.WriteByte(')')
	case *AstUnary:
		b.WriteString(v.Op + "(")
		s.write(b, v.E, scalar)
		b.WriteByte(')')
	case *AstCall:
		b.WriteString(v.Name + "(")
		for i, arg := range v.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			s.write(b, arg.E, scalar || scalarArg(v.Name, i))
			if arg.Alias != "" {
				b.WriteString(" as " + arg.Alias)
			}
		}
		b.WriteByte(')')
	}
}

// writeQuoted writes str as a double-quoted SEQL string literal.
func writeQuoted(b *strings.Builder, str string) {
	b.WriteByte('"')
	for i := 0; i < len(str); i++ {
		if str[i] == '"' || str[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(str[i])
	}
	b.WriteByte('"')
}
