package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/seq"
)

// Catalog resolves sequence names to base algebra nodes.
type Catalog interface {
	// Resolve returns the base node for a named sequence.
	Resolve(name string) (*algebra.Node, bool)
}

// CatalogFunc adapts a function to the Catalog interface.
type CatalogFunc func(name string) (*algebra.Node, bool)

// Resolve implements Catalog.
func (f CatalogFunc) Resolve(name string) (*algebra.Node, bool) { return f(name) }

// Bind parses SEQL source and binds it against the catalog, producing a
// logical query graph.
func Bind(src string, cat Catalog) (*algebra.Node, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	b := &binder{cat: cat}
	return b.node(ast)
}

// binder binds an AST against a catalog. slots, when set, are the values
// of a Shape's slots: a slot literal binds to its value there, tagged
// with its slot.
type binder struct {
	cat   Catalog
	slots []seq.Value
}

// aggWindows maps function-name prefixes to window constructors.
var aggFuncs = map[string]algebra.AggFunc{
	"sum": algebra.AggSum, "avg": algebra.AggAvg, "min": algebra.AggMin,
	"max": algebra.AggMax, "count": algebra.AggCount,
}

// node binds an AST node that must denote a sequence.
func (b *binder) node(a Ast) (*algebra.Node, error) {
	switch v := a.(type) {
	case *AstIdent:
		if len(v.Parts) != 1 {
			return nil, fmt.Errorf("parser: %q is not a sequence name", strings.Join(v.Parts, "."))
		}
		n, ok := b.cat.Resolve(v.Parts[0])
		if !ok {
			return nil, fmt.Errorf("parser: unknown sequence %q", v.Parts[0])
		}
		return n, nil
	case *AstCall:
		return b.call(v)
	default:
		return nil, fmt.Errorf("parser: expected a sequence expression, got %T", a)
	}
}

func (b *binder) call(c *AstCall) (*algebra.Node, error) {
	name := strings.ToLower(c.Name)
	if f, ok := aggFuncs[name]; ok {
		return b.agg(c, f, false)
	}
	if strings.HasPrefix(name, "r") {
		if f, ok := aggFuncs[name[1:]]; ok {
			return b.agg(c, f, true)
		}
	}
	switch name {
	case "select":
		return b.selectCall(c)
	case "project":
		return b.projectCall(c)
	case "compose":
		return b.composeCall(c)
	case "offset":
		return b.offsetCall(c)
	case "voffset":
		return b.voffsetCall(c, 0)
	case "prev", "previous":
		return b.voffsetCall(c, -1)
	case "next":
		return b.voffsetCall(c, +1)
	case "collapse":
		return b.collapseCall(c)
	case "expand":
		return b.expandCall(c)
	default:
		return nil, fmt.Errorf("parser: unknown operator %q", c.Name)
	}
}

// collapseCall binds the §5.1 domain-coarsening operator:
//
//	collapse(S, avg(close), 7)   -- weekly average of a daily series
//	collapse(S, count(), 7)      -- records per week
func (b *binder) collapseCall(c *AstCall) (*algebra.Node, error) {
	if err := b.arity(c, 3, 3); err != nil {
		return nil, err
	}
	in, err := b.node(c.Args[0].E)
	if err != nil {
		return nil, err
	}
	aggAst, ok := c.Args[1].E.(*AstCall)
	if !ok {
		return nil, fmt.Errorf("parser: collapse expects an aggregate call like avg(close), got %T", c.Args[1].E)
	}
	f, known := aggFuncs[strings.ToLower(aggAst.Name)]
	if !known {
		return nil, fmt.Errorf("parser: unknown aggregate %q in collapse", aggAst.Name)
	}
	arg := -1
	switch {
	case f == algebra.AggCount && len(aggAst.Args) == 0:
	case len(aggAst.Args) == 1:
		id, ok := aggAst.Args[0].E.(*AstIdent)
		if !ok {
			return nil, fmt.Errorf("parser: %s in collapse expects an attribute name", aggAst.Name)
		}
		arg, err = resolveCol(in.Schema, id)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("parser: %s in collapse expects one attribute argument", aggAst.Name)
	}
	factor, err := intArgOf(c, c.Args[2])
	if err != nil {
		return nil, err
	}
	as := c.Args[1].Alias
	if as == "" {
		as = strings.ToLower(aggAst.Name)
	}
	return algebra.Collapse(in, factor, algebra.AggSpec{Func: f, Arg: arg, As: as})
}

// expandCall binds the §5.1 domain-refining operator: expand(S, 7).
func (b *binder) expandCall(c *AstCall) (*algebra.Node, error) {
	if err := b.arity(c, 2, 2); err != nil {
		return nil, err
	}
	in, err := b.node(c.Args[0].E)
	if err != nil {
		return nil, err
	}
	factor, err := intArgOf(c, c.Args[1])
	if err != nil {
		return nil, err
	}
	return algebra.Expand(in, factor)
}

func (b *binder) arity(c *AstCall, min, max int) error {
	if len(c.Args) < min || len(c.Args) > max {
		if min == max {
			return fmt.Errorf("parser: %s expects %d arguments, got %d", c.Name, min, len(c.Args))
		}
		return fmt.Errorf("parser: %s expects %d to %d arguments, got %d", c.Name, min, max, len(c.Args))
	}
	return nil
}

func (b *binder) selectCall(c *AstCall) (*algebra.Node, error) {
	if err := b.arity(c, 2, 2); err != nil {
		return nil, err
	}
	in, err := b.node(c.Args[0].E)
	if err != nil {
		return nil, err
	}
	pred, err := b.scalar(c.Args[1].E, in.Schema)
	if err != nil {
		return nil, err
	}
	return algebra.Select(in, pred)
}

func (b *binder) projectCall(c *AstCall) (*algebra.Node, error) {
	if err := b.arity(c, 2, 64); err != nil {
		return nil, err
	}
	in, err := b.node(c.Args[0].E)
	if err != nil {
		return nil, err
	}
	items := make([]algebra.ProjItem, 0, len(c.Args)-1)
	for _, arg := range c.Args[1:] {
		e, err := b.scalar(arg.E, in.Schema)
		if err != nil {
			return nil, err
		}
		name := arg.Alias
		if name == "" {
			if id, ok := arg.E.(*AstIdent); ok {
				name = id.Parts[len(id.Parts)-1]
			}
		}
		items = append(items, algebra.ProjItem{Expr: e, Name: name})
	}
	return algebra.Project(in, items)
}

func (b *binder) composeCall(c *AstCall) (*algebra.Node, error) {
	if err := b.arity(c, 2, 3); err != nil {
		return nil, err
	}
	l, err := b.node(c.Args[0].E)
	if err != nil {
		return nil, err
	}
	r, err := b.node(c.Args[1].E)
	if err != nil {
		return nil, err
	}
	lq := c.Args[0].Alias
	if lq == "" {
		lq = defaultQual(c.Args[0].E, "l")
	}
	rq := c.Args[1].Alias
	if rq == "" {
		rq = defaultQual(c.Args[1].E, "r")
	}
	var pred expr.Expr
	if len(c.Args) == 3 {
		schema, err := algebra.ComposeSchema(l, r, lq, rq)
		if err != nil {
			return nil, err
		}
		pred, err = b.scalar(c.Args[2].E, schema)
		if err != nil {
			return nil, err
		}
	}
	return algebra.Compose(l, r, pred, lq, rq)
}

// defaultQual derives a compose qualifier from a bare sequence name.
func defaultQual(a Ast, fallback string) string {
	if id, ok := a.(*AstIdent); ok && len(id.Parts) == 1 {
		return id.Parts[0]
	}
	return fallback
}

func (b *binder) offsetCall(c *AstCall) (*algebra.Node, error) {
	if err := b.arity(c, 2, 2); err != nil {
		return nil, err
	}
	in, err := b.node(c.Args[0].E)
	if err != nil {
		return nil, err
	}
	l, err := intArg(c, 1)
	if err != nil {
		return nil, err
	}
	return algebra.PosOffset(in, l)
}

// voffsetCall binds prev/next/voffset. fixed != 0 selects the prev/next
// short forms, whose optional second argument scales the offset.
func (b *binder) voffsetCall(c *AstCall, fixed int64) (*algebra.Node, error) {
	minArgs := 1
	if fixed == 0 {
		minArgs = 2
	}
	if err := b.arity(c, minArgs, 2); err != nil {
		return nil, err
	}
	in, err := b.node(c.Args[0].E)
	if err != nil {
		return nil, err
	}
	switch {
	case fixed == 0:
		k, err := intArg(c, 1)
		if err != nil {
			return nil, err
		}
		return algebra.ValueOffset(in, k)
	default:
		if err := b.arity(c, 1, 2); err != nil {
			return nil, err
		}
		k := int64(1)
		if len(c.Args) == 2 {
			var err error
			k, err = intArg(c, 1)
			if err != nil {
				return nil, err
			}
			if k <= 0 {
				return nil, fmt.Errorf("parser: %s count must be positive, got %d", c.Name, k)
			}
		}
		return algebra.ValueOffset(in, fixed*k)
	}
}

// agg binds sum/avg/min/max/count and their running r-variants:
//
//	sum(S, col)            whole-sequence sum
//	sum(S, col, w)         moving sum over the trailing w positions
//	sum(S, col, lo, hi)    sum over the relative window [lo, hi]
//	rsum(S, col)           running (cumulative) sum
//	count(S[, w])          record count (no attribute needed)
func (b *binder) agg(c *AstCall, f algebra.AggFunc, running bool) (*algebra.Node, error) {
	minArgs := 2
	if f == algebra.AggCount {
		minArgs = 1
	}
	if err := b.arity(c, minArgs, minArgs+2); err != nil {
		return nil, err
	}
	in, err := b.node(c.Args[0].E)
	if err != nil {
		return nil, err
	}
	arg := -1
	rest := c.Args[1:]
	if f != algebra.AggCount {
		id, ok := c.Args[1].E.(*AstIdent)
		if !ok {
			return nil, fmt.Errorf("parser: %s expects an attribute name as second argument", c.Name)
		}
		arg, err = resolveCol(in.Schema, id)
		if err != nil {
			return nil, err
		}
		rest = c.Args[2:]
	} else if len(c.Args) > 1 {
		// count(S, w) — the remaining args are window parameters.
		rest = c.Args[1:]
	}
	var w algebra.Window
	switch {
	case running:
		if len(rest) != 0 {
			return nil, fmt.Errorf("parser: running %s takes no window arguments", c.Name)
		}
		w = algebra.Cumulative()
	case len(rest) == 0:
		w = algebra.All()
	case len(rest) == 1:
		width, err := intArgOf(c, rest[0])
		if err != nil {
			return nil, err
		}
		if width <= 0 {
			return nil, fmt.Errorf("parser: window width must be positive, got %d", width)
		}
		w = algebra.Trailing(width)
	default:
		lo, err := intArgOf(c, rest[0])
		if err != nil {
			return nil, err
		}
		hi, err := intArgOf(c, rest[1])
		if err != nil {
			return nil, err
		}
		w = algebra.Range(lo, hi)
	}
	as := strings.ToLower(c.Name)
	return algebra.Agg(in, algebra.AggSpec{Func: f, Arg: arg, Window: w, As: as})
}

func intArg(c *AstCall, i int) (int64, error) {
	return intArgOf(c, c.Args[i])
}

func intArgOf(c *AstCall, arg AstArg) (int64, error) {
	switch v := arg.E.(type) {
	case *AstNumber:
		if v.IsInt {
			return strconv.ParseInt(v.Text, 10, 64)
		}
	case *AstUnary:
		if v.Op == "-" {
			n, err := intArgOf(c, AstArg{E: v.E})
			return -n, err
		}
	}
	return 0, fmt.Errorf("parser: %s expects an integer argument", c.Name)
}

// resolveCol resolves a possibly qualified attribute name.
func resolveCol(schema *seq.Schema, id *AstIdent) (int, error) {
	full := strings.Join(id.Parts, ".")
	if i := schema.Index(full); i >= 0 {
		return i, nil
	}
	if len(id.Parts) > 1 {
		if i := schema.Index(id.Parts[len(id.Parts)-1]); i >= 0 {
			return i, nil
		}
	}
	return -1, fmt.Errorf("parser: unknown attribute %q in %v", full, schema)
}

// scalar binds an AST expression to a typed expression over the schema.
func (b *binder) scalar(a Ast, schema *seq.Schema) (expr.Expr, error) {
	switch v := a.(type) {
	case *AstIdent:
		switch strings.Join(v.Parts, ".") {
		case "true":
			return expr.Literal(seq.Bool(true)), nil
		case "false":
			return expr.Literal(seq.Bool(false)), nil
		}
		i, err := resolveCol(schema, v)
		if err != nil {
			return nil, err
		}
		return expr.ColAt(schema, i)
	case *AstNumber:
		if v.Slot > 0 && b.slots != nil {
			return &expr.Lit{Val: b.slots[v.Slot-1], Slot: v.Slot}, nil
		}
		if v.IsInt {
			n, err := strconv.ParseInt(v.Text, 10, 64)
			if err != nil {
				return nil, err
			}
			return expr.Literal(seq.Int(n)), nil
		}
		f, err := strconv.ParseFloat(v.Text, 64)
		if err != nil {
			return nil, err
		}
		return expr.Literal(seq.Float(f)), nil
	case *AstString:
		if v.Slot > 0 && b.slots != nil {
			return &expr.Lit{Val: b.slots[v.Slot-1], Slot: v.Slot}, nil
		}
		return expr.Literal(seq.Str(v.Val)), nil
	case *AstUnary:
		inner, err := b.scalar(v.E, schema)
		if err != nil {
			return nil, err
		}
		if v.Op == "not" {
			return expr.NewNot(inner)
		}
		return expr.NewNeg(inner)
	case *AstBinary:
		l, err := b.scalar(v.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := b.scalar(v.R, schema)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[v.Op]
		if !ok {
			return nil, fmt.Errorf("parser: unknown operator %q", v.Op)
		}
		return expr.NewBin(op, l, r)
	case *AstCall:
		fn, ok := expr.LookupFunc(strings.ToLower(v.Name))
		if !ok {
			return nil, fmt.Errorf("parser: %s is not a scalar function (operators cannot appear in scalar expressions)", v.Name)
		}
		args := make([]expr.Expr, len(v.Args))
		for i, a := range v.Args {
			na, err := b.scalar(a.E, schema)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return expr.NewCall(fn, args)
	default:
		return nil, fmt.Errorf("parser: unexpected scalar %T", a)
	}
}

var binOps = map[string]expr.BinOp{
	"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul, "/": expr.OpDiv, "%": expr.OpMod,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
	"=": expr.OpEq, "!=": expr.OpNe, "<>": expr.OpNe,
	"and": expr.OpAnd, "or": expr.OpOr,
}
