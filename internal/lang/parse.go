package lang

import "fmt"

// Parse parses a source program. A lexical error anywhere in the source
// is reported in preference to a syntax error.
func Parse(src string) (*Program, error) {
	p := &parser{lx: newLexer(src)}
	p.next()
	var stmts []Stmt
	for !p.at(tokEOF, "") {
		s, err := p.stmt()
		if err != nil {
			return nil, p.lexErrorOr(err)
		}
		stmts = append(stmts, s)
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return &Program{Stmts: stmts}, nil
}

type parser struct {
	lx  lexer
	tok token // the current token
}

// lexErrorOr returns the first lexical error in the rest of the source,
// or err if there is none.
func (p *parser) lexErrorOr(err error) error {
	for p.tok.kind != tokEOF {
		p.next()
	}
	if p.lx.err != nil {
		return p.lx.err
	}
	return err
}

func (p *parser) cur() token { return p.tok }

// next consumes the current token and returns it. Past the end it keeps
// returning EOF.
func (p *parser) next() token {
	t := p.tok
	p.tok = p.lx.next()
	return t
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, fmt.Errorf("lang: line %d: expected %q, got %q", p.cur().line, text, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) stmt() (Stmt, error) {
	switch {
	case p.at(tokKeyword, "if"):
		return p.ifStmt()
	case p.at(tokKeyword, "while"):
		return p.whileStmt()
	case p.at(tokKeyword, "for"):
		return p.forStmt()
	case p.at(tokKeyword, "return"):
		p.next()
		p.accept(tokPunct, ";")
		return &Return{}, nil
	case p.at(tokKeyword, "break"):
		p.next()
		p.accept(tokPunct, ";")
		return &Break{}, nil
	case p.at(tokKeyword, "continue"):
		p.next()
		p.accept(tokPunct, ";")
		return &Continue{}, nil
	case p.at(tokIdent, ""):
		a, err := p.assign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return a, nil
	}
	return nil, fmt.Errorf("lang: line %d: unexpected token %q", p.cur().line, p.cur().text)
}

func (p *parser) assign() (*Assign, error) {
	name := p.next().text
	if _, err := p.expect(tokPunct, "="); err != nil {
		return nil, err
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &Assign{Name: name, X: x}, nil
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept(tokPunct, "}") {
		if p.at(tokEOF, "") {
			return nil, fmt.Errorf("lang: unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	p.next() // if
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.accept(tokKeyword, "else") {
		els, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	return &If{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	p.next() // while
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	p.next() // for
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	init, err := p.assign()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	post, err := p.assign()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &For{Init: init, Cond: cond, Post: post, Body: body}, nil
}

// Expression parsing by precedence climbing. Lowest first.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) expr() (Expr, error) { return p.binExpr(0) }

func (p *parser) binExpr(level int) (Expr, error) {
	if level == len(precLevels) {
		return p.unary()
	}
	left, err := p.binExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range precLevels[level] {
			if p.at(tokPunct, op) {
				p.next()
				right, err := p.binExpr(level + 1)
				if err != nil {
					return nil, err
				}
				left = &Bin{Op: op, L: left, R: right}
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
	}
}

func (p *parser) unary() (Expr, error) {
	for _, op := range []string{"-", "~", "!"} {
		if p.at(tokPunct, op) {
			p.next()
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &Un{Op: op, X: x}, nil
		}
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		var v int64
		if _, err := fmt.Sscan(t.text, &v); err != nil {
			return nil, fmt.Errorf("lang: line %d: bad number %q", t.line, t.text)
		}
		return &Num{Value: v}, nil
	case t.kind == tokIdent:
		p.next()
		return &Var{Name: t.text}, nil
	case p.accept(tokPunct, "("):
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, fmt.Errorf("lang: line %d: unexpected token %q in expression", t.line, t.text)
}
