// Package expr provides typed expression trees over sequence records:
// column references, literals, arithmetic, comparisons and boolean
// connectives. Expressions are the parameters of the algebra's Selection,
// Projection and Compose operators. The package also estimates predicate
// selectivities from column statistics, which feeds the optimizer's
// density propagation (§3, "distributions of values in the columns ...
// used to determine the selectivity of predicates").
//
// Expressions are immutable after construction and are type-checked as
// they are built: constructors reject operand type mismatches, so a
// well-formed Expr never fails to evaluate on a conforming record.
package expr

import (
	"fmt"

	"repro/internal/seq"
)

// Expr is a typed expression evaluated against a single record.
type Expr interface {
	// Type returns the expression's result type.
	Type() seq.Type
	// Eval evaluates the expression on a non-Null record conforming to
	// the schema the expression was built against.
	Eval(rec seq.Record) (seq.Value, error)
	// String renders the expression in source-like syntax.
	String() string
}

// Col is a reference to a record attribute by index.
type Col struct {
	Index int
	Name  string
	Typ   seq.Type
}

// NewCol resolves the named attribute against the schema.
func NewCol(schema *seq.Schema, name string) (*Col, error) {
	i := schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("expr: no attribute %q in %v", name, schema)
	}
	f := schema.Field(i)
	return &Col{Index: i, Name: f.Name, Typ: f.Type}, nil
}

// ColAt references the attribute at the given index of the schema.
func ColAt(schema *seq.Schema, i int) (*Col, error) {
	if i < 0 || i >= schema.NumFields() {
		return nil, fmt.Errorf("expr: column index %d out of range for %v", i, schema)
	}
	f := schema.Field(i)
	return &Col{Index: i, Name: f.Name, Typ: f.Type}, nil
}

// Type implements Expr.
func (c *Col) Type() seq.Type { return c.Typ }

// Eval implements Expr.
func (c *Col) Eval(rec seq.Record) (seq.Value, error) {
	if rec.IsNull() {
		return seq.Value{}, fmt.Errorf("expr: evaluating %s on Null record", c.Name)
	}
	if c.Index >= len(rec) {
		return seq.Value{}, fmt.Errorf("expr: column %d out of range for record of arity %d", c.Index, len(rec))
	}
	return rec[c.Index], nil
}

// String implements Expr.
func (c *Col) String() string { return c.Name }

// Lit is a literal constant.
type Lit struct {
	Val seq.Value
	// Slot is the 1-based index of the query-text slot the literal fills
	// (see parser.Shape), 0 for a literal that fills none. A plan made
	// for one text serves another of the same shape by substituting its
	// slot values (WithSlots).
	Slot int
}

// Literal wraps a value as an expression.
func Literal(v seq.Value) *Lit { return &Lit{Val: v} }

// Type implements Expr.
func (l *Lit) Type() seq.Type { return l.Val.T }

// Eval implements Expr.
func (l *Lit) Eval(seq.Record) (seq.Value, error) { return l.Val, nil }

// String implements Expr.
func (l *Lit) String() string { return l.Val.String() }

// BinOp enumerates binary operators.
type BinOp int

// The binary operators, grouped by family.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod

	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe

	OpAnd
	OpOr
)

// String returns the operator's source syntax.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	default:
		return fmt.Sprintf("BinOp(%d)", int(op))
	}
}

// Arithmetic reports whether the operator is +, -, *, / or %.
func (op BinOp) Arithmetic() bool { return op >= OpAdd && op <= OpMod }

// Comparison reports whether the operator is a comparison.
func (op BinOp) Comparison() bool { return op >= OpLt && op <= OpNe }

// Logical reports whether the operator is a boolean connective.
func (op BinOp) Logical() bool { return op == OpAnd || op == OpOr }

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
	typ  seq.Type
}

// NewBin builds a type-checked binary expression.
func NewBin(op BinOp, l, r Expr) (*Bin, error) {
	lt, rt := l.Type(), r.Type()
	var typ seq.Type
	switch {
	case op.Arithmetic():
		if !lt.Numeric() || !rt.Numeric() {
			return nil, fmt.Errorf("expr: %s requires numeric operands, got %s and %s", op, lt, rt)
		}
		if op == OpMod {
			if lt != seq.TInt || rt != seq.TInt {
				return nil, fmt.Errorf("expr: %% requires int operands, got %s and %s", lt, rt)
			}
			typ = seq.TInt
		} else if lt == seq.TInt && rt == seq.TInt {
			typ = seq.TInt
		} else {
			typ = seq.TFloat
		}
	case op.Comparison():
		comparable := (lt.Numeric() && rt.Numeric()) || lt == rt
		if !comparable {
			return nil, fmt.Errorf("expr: cannot compare %s with %s", lt, rt)
		}
		typ = seq.TBool
	case op.Logical():
		if lt != seq.TBool || rt != seq.TBool {
			return nil, fmt.Errorf("expr: %s requires bool operands, got %s and %s", op, lt, rt)
		}
		typ = seq.TBool
	default:
		return nil, fmt.Errorf("expr: unknown operator %v", op)
	}
	return &Bin{Op: op, L: l, R: r, typ: typ}, nil
}

// Type implements Expr.
func (b *Bin) Type() seq.Type { return b.typ }

// Eval implements Expr.
func (b *Bin) Eval(rec seq.Record) (seq.Value, error) {
	lv, err := b.L.Eval(rec)
	if err != nil {
		return seq.Value{}, err
	}
	// Short-circuit boolean connectives.
	if b.Op == OpAnd && !lv.AsBool() {
		return seq.Bool(false), nil
	}
	if b.Op == OpOr && lv.AsBool() {
		return seq.Bool(true), nil
	}
	rv, err := b.R.Eval(rec)
	if err != nil {
		return seq.Value{}, err
	}
	switch {
	case b.Op.Logical():
		return rv, nil
	case b.Op.Comparison():
		c, err := lv.Compare(rv)
		if err != nil {
			return seq.Value{}, err
		}
		switch b.Op {
		case OpLt:
			return seq.Bool(c < 0), nil
		case OpLe:
			return seq.Bool(c <= 0), nil
		case OpGt:
			return seq.Bool(c > 0), nil
		case OpGe:
			return seq.Bool(c >= 0), nil
		case OpEq:
			return seq.Bool(c == 0), nil
		default: // OpNe
			return seq.Bool(c != 0), nil
		}
	default:
		return evalArith(b.Op, b.typ, lv, rv)
	}
}

func evalArith(op BinOp, typ seq.Type, lv, rv seq.Value) (seq.Value, error) {
	if typ == seq.TInt {
		a, b := lv.AsInt(), rv.AsInt()
		switch op {
		case OpAdd:
			return seq.Int(a + b), nil
		case OpSub:
			return seq.Int(a - b), nil
		case OpMul:
			return seq.Int(a * b), nil
		case OpDiv:
			if b == 0 {
				return seq.Value{}, fmt.Errorf("expr: integer division by zero")
			}
			return seq.Int(a / b), nil
		default: // OpMod
			if b == 0 {
				return seq.Value{}, fmt.Errorf("expr: integer modulo by zero")
			}
			return seq.Int(a % b), nil
		}
	}
	a, b := lv.AsFloat(), rv.AsFloat()
	switch op {
	case OpAdd:
		return seq.Float(a + b), nil
	case OpSub:
		return seq.Float(a - b), nil
	case OpMul:
		return seq.Float(a * b), nil
	default: // OpDiv; float division by zero yields ±Inf like Go
		return seq.Float(a / b), nil
	}
}

// String implements Expr.
func (b *Bin) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Not is boolean negation.
type Not struct {
	E Expr
}

// NewNot builds a type-checked negation.
func NewNot(e Expr) (*Not, error) {
	if e.Type() != seq.TBool {
		return nil, fmt.Errorf("expr: not requires bool operand, got %s", e.Type())
	}
	return &Not{E: e}, nil
}

// Type implements Expr.
func (n *Not) Type() seq.Type { return seq.TBool }

// Eval implements Expr.
func (n *Not) Eval(rec seq.Record) (seq.Value, error) {
	v, err := n.E.Eval(rec)
	if err != nil {
		return seq.Value{}, err
	}
	return seq.Bool(!v.AsBool()), nil
}

// String implements Expr.
func (n *Not) String() string { return "not " + n.E.String() }

// Neg is arithmetic negation.
type Neg struct {
	E Expr
}

// NewNeg builds a type-checked arithmetic negation.
func NewNeg(e Expr) (*Neg, error) {
	if !e.Type().Numeric() {
		return nil, fmt.Errorf("expr: unary minus requires numeric operand, got %s", e.Type())
	}
	return &Neg{E: e}, nil
}

// Type implements Expr.
func (n *Neg) Type() seq.Type { return n.E.Type() }

// Eval implements Expr.
func (n *Neg) Eval(rec seq.Record) (seq.Value, error) {
	v, err := n.E.Eval(rec)
	if err != nil {
		return seq.Value{}, err
	}
	if v.T == seq.TInt {
		return seq.Int(-v.AsInt()), nil
	}
	return seq.Float(-v.AsFloat()), nil
}

// String implements Expr.
func (n *Neg) String() string { return "-" + n.E.String() }

// EvalPred evaluates a boolean expression on a record. It is a
// convenience for selection and join predicates.
func EvalPred(e Expr, rec seq.Record) (bool, error) {
	v, err := e.Eval(rec)
	if err != nil {
		return false, err
	}
	if v.T != seq.TBool {
		return false, fmt.Errorf("expr: predicate evaluated to %s, not bool", v.T)
	}
	return v.AsBool(), nil
}

// Columns returns the sorted, deduplicated set of attribute indexes the
// expression references. These are the attributes that "participate" in
// the operator (paper §3.1, footnote 4).
func Columns(e Expr) []int {
	set := make(map[int]bool)
	collectCols(e, set)
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	// insertion sort; the sets are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func collectCols(e Expr, set map[int]bool) {
	switch v := e.(type) {
	case *Col:
		set[v.Index] = true
	case *Bin:
		collectCols(v.L, set)
		collectCols(v.R, set)
	case *Not:
		collectCols(v.E, set)
	case *Neg:
		collectCols(v.E, set)
	case *Call:
		for _, a := range v.Args {
			collectCols(a, set)
		}
	}
}

// Remap rewrites every column reference through the mapping: a reference
// to index i becomes a reference to mapping[i]. A referenced index that is
// missing from the mapping (absent key or negative value) is an error —
// the caller attempted to push the expression somewhere its inputs do not
// exist.
func Remap(e Expr, mapping map[int]int) (Expr, error) {
	switch v := e.(type) {
	case *Col:
		j, ok := mapping[v.Index]
		if !ok || j < 0 {
			return nil, fmt.Errorf("expr: column %q (index %d) not available after remap", v.Name, v.Index)
		}
		return &Col{Index: j, Name: v.Name, Typ: v.Typ}, nil
	case *Lit:
		return v, nil
	case *Bin:
		l, err := Remap(v.L, mapping)
		if err != nil {
			return nil, err
		}
		r, err := Remap(v.R, mapping)
		if err != nil {
			return nil, err
		}
		return &Bin{Op: v.Op, L: l, R: r, typ: v.typ}, nil
	case *Not:
		inner, err := Remap(v.E, mapping)
		if err != nil {
			return nil, err
		}
		return &Not{E: inner}, nil
	case *Neg:
		inner, err := Remap(v.E, mapping)
		if err != nil {
			return nil, err
		}
		return &Neg{E: inner}, nil
	case *Call:
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			na, err := Remap(a, mapping)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &Call{Fn: v.Fn, Args: args, typ: v.typ}, nil
	default:
		return nil, fmt.Errorf("expr: unknown node %T in Remap", e)
	}
}

// And conjoins two predicates (either may be nil, meaning "true").
func And(a, b Expr) (Expr, error) {
	switch {
	case a == nil:
		return b, nil
	case b == nil:
		return a, nil
	default:
		return NewBin(OpAnd, a, b)
	}
}

// VisitSlots calls f on every slot literal of e, in tree order.
func VisitSlots(e Expr, f func(*Lit)) {
	switch v := e.(type) {
	case *Lit:
		if v.Slot > 0 {
			f(v)
		}
	case *Bin:
		VisitSlots(v.L, f)
		VisitSlots(v.R, f)
	case *Not:
		VisitSlots(v.E, f)
	case *Neg:
		VisitSlots(v.E, f)
	case *Call:
		for _, a := range v.Args {
			VisitSlots(a, f)
		}
	}
}

// WithSlots returns e with every slot literal holding vals[Slot-1]. The
// substitution keeps each literal's type (a slot's type is part of the
// text's shape), so every node keeps its type; e itself is returned when
// no value changes.
func WithSlots(e Expr, vals []seq.Value) Expr {
	switch v := e.(type) {
	case *Lit:
		if v.Slot > 0 && v.Slot <= len(vals) && vals[v.Slot-1] != v.Val {
			return &Lit{Val: vals[v.Slot-1], Slot: v.Slot}
		}
	case *Bin:
		if l, r := WithSlots(v.L, vals), WithSlots(v.R, vals); l != v.L || r != v.R {
			return &Bin{Op: v.Op, L: l, R: r, typ: v.typ}
		}
	case *Not:
		if in := WithSlots(v.E, vals); in != v.E {
			return &Not{E: in}
		}
	case *Neg:
		if in := WithSlots(v.E, vals); in != v.E {
			return &Neg{E: in}
		}
	case *Call:
		args := make([]Expr, len(v.Args))
		changed := false
		for i, a := range v.Args {
			args[i] = WithSlots(a, vals)
			changed = changed || args[i] != a
		}
		if changed {
			return &Call{Fn: v.Fn, Args: args, typ: v.typ}
		}
	}
	return e
}
