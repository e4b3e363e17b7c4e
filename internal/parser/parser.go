package parser

import (
	"fmt"
	"strconv"
)

// The AST is untyped: name resolution and type checking happen in the
// binder against a catalog.

// Ast is an untyped expression node.
type Ast interface{ astNode() }

// AstIdent is a possibly qualified identifier (a, a.b).
type AstIdent struct {
	Parts []string
	Pos   int
}

// AstNumber is a numeric literal. Slot is its 1-based slot in a Shape,
// 0 when it fills none.
type AstNumber struct {
	Text  string
	IsInt bool
	Pos   int
	Slot  int
}

// AstString is a string literal. Slot is as for AstNumber.
type AstString struct {
	Val  string
	Pos  int
	Slot int
}

// AstBinary is a binary operation ("and", "or", "<", "+", ...).
type AstBinary struct {
	Op   string
	L, R Ast
	Pos  int
}

// AstUnary is negation ("-", "not").
type AstUnary struct {
	Op  string
	E   Ast
	Pos int
}

// AstCall is a function call — operator constructors and nothing else.
type AstCall struct {
	Name string
	Args []AstArg
	Pos  int
}

// AstArg is one call argument with an optional "as" alias.
type AstArg struct {
	E     Ast
	Alias string
}

func (*AstIdent) astNode()  {}
func (*AstNumber) astNode() {}
func (*AstString) astNode() {}
func (*AstBinary) astNode() {}
func (*AstUnary) astNode()  {}
func (*AstCall) astNode()   {}

// Parse turns SEQL source into an AST.
func Parse(src string) (Ast, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

type parser struct {
	toks []token
	at   int
}

func (p *parser) peek() token { return p.toks[p.at] }

func (p *parser) next() token {
	t := p.toks[p.at]
	if t.kind != tokEOF {
		p.at++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("parser: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return t, p.errf("expected %s, got %q", what, t.text)
	}
	return p.next(), nil
}

// isKeyword reports whether the current token is the given word.
func (p *parser) isKeyword(word string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == word
}

// expr := orExpr
func (p *parser) expr() (Ast, error) { return p.orExpr() }

func (p *parser) orExpr() (Ast, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		pos := p.next().pos
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &AstBinary{Op: "or", L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *parser) andExpr() (Ast, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		pos := p.next().pos
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &AstBinary{Op: "and", L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *parser) notExpr() (Ast, error) {
	if p.isKeyword("not") {
		pos := p.next().pos
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &AstUnary{Op: "not", E: e, Pos: pos}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Ast, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		switch t.text {
		case "<", "<=", ">", ">=", "=", "!=", "<>":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &AstBinary{Op: t.text, L: l, R: r, Pos: t.pos}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Ast, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &AstBinary{Op: t.text, L: l, R: r, Pos: t.pos}
	}
}

func (p *parser) mulExpr() (Ast, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/" && t.text != "%") {
			return l, nil
		}
		p.next()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &AstBinary{Op: t.text, L: l, R: r, Pos: t.pos}
	}
}

func (p *parser) unaryExpr() (Ast, error) {
	t := p.peek()
	if t.kind == tokOp && t.text == "-" {
		p.next()
		if n := &p.toks[p.at]; n.kind == tokNumber {
			// A minus directly before a number is its sign: a negative
			// literal is one literal (one Shape slot).
			n.text, n.pos = "-"+n.text, t.pos
			return p.primary()
		}
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &AstUnary{Op: "-", E: e, Pos: t.pos}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Ast, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		isInt := true
		if _, err := strconv.ParseInt(t.text, 10, 64); err != nil {
			isInt = false
			if _, err := strconv.ParseFloat(t.text, 64); err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
		}
		return &AstNumber{Text: t.text, IsInt: isInt, Pos: t.pos}, nil
	case tokString:
		p.next()
		return &AstString{Val: t.text, Pos: t.pos}, nil
	case tokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		switch t.text {
		case "true", "false":
			p.next()
			return &AstIdent{Parts: []string{t.text}, Pos: t.pos}, nil
		}
		p.next()
		if p.peek().kind == tokLParen {
			return p.call(t)
		}
		parts := []string{t.text}
		for p.peek().kind == tokDot {
			p.next()
			id, err := p.expect(tokIdent, "identifier after '.'")
			if err != nil {
				return nil, err
			}
			parts = append(parts, id.text)
		}
		return &AstIdent{Parts: parts, Pos: t.pos}, nil
	default:
		return nil, p.errf("unexpected %q", t.text)
	}
}

func (p *parser) call(name token) (Ast, error) {
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	c := &AstCall{Name: name.text, Pos: name.pos}
	if p.peek().kind == tokRParen {
		p.next()
		return c, nil
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		arg := AstArg{E: e}
		if p.isKeyword("as") {
			p.next()
			id, err := p.expect(tokIdent, "alias after 'as'")
			if err != nil {
				return nil, err
			}
			arg.Alias = id.text
		}
		c.Args = append(c.Args, arg)
		t := p.next()
		switch t.kind {
		case tokComma:
			continue
		case tokRParen:
			return c, nil
		default:
			return nil, p.errf("expected ',' or ')' in call, got %q", t.text)
		}
	}
}
