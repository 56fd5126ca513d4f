package clc

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser for the supported subset.
type parser struct {
	toks []token
	i    int
}

// Compile lexes, parses and checks a translation unit.
func Compile(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{Source: src}
	for p.cur().kind != tokEOF {
		k, err := p.kernel()
		if err != nil {
			return nil, err
		}
		prog.Kernels = append(prog.Kernels, k)
	}
	if len(prog.Kernels) == 0 {
		return nil, fmt.Errorf("clc: no kernels in program")
	}
	for _, k := range prog.Kernels {
		if err := checkKernel(k); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) peek() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) *Error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(text string) (token, error) {
	t := p.cur()
	if t.kind == tokPunct && t.text == text {
		return p.advance(), nil
	}
	if t.kind == tokIdent && t.text == text {
		return p.advance(), nil
	}
	return t, p.errf(t, "expected %q, found %s", text, t)
}

func (p *parser) accept(text string) bool {
	t := p.cur()
	if (t.kind == tokPunct || t.kind == tokIdent) && t.text == text {
		p.advance()
		return true
	}
	return false
}

func qualifier(name string) (AddressSpace, bool) {
	switch name {
	case "__global", "global":
		return GlobalMem, true
	case "__local", "local":
		return LocalMem, true
	case "__private", "private":
		return Private, true
	}
	return Private, false
}

func isSkippableQualifier(name string) bool {
	switch name {
	case "const", "restrict", "volatile", "__restrict":
		return true
	}
	return false
}

// kernel parses `__kernel void name(params) { ... }`.
func (p *parser) kernel() (*KernelDecl, error) {
	if !p.accept("__kernel") && !p.accept("kernel") {
		return nil, p.errf(p.cur(), "expected __kernel, found %s", p.cur())
	}
	// Optional attributes like __attribute__((...)) are not supported.
	if _, err := p.expect("void"); err != nil {
		return nil, err
	}
	nameTok := p.cur()
	if nameTok.kind != tokIdent {
		return nil, p.errf(nameTok, "expected kernel name, found %s", nameTok)
	}
	p.advance()
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	var params []Param
	for !p.accept(")") {
		if len(params) > 0 {
			if _, err := p.expect(","); err != nil {
				return nil, err
			}
		}
		prm, err := p.param()
		if err != nil {
			return nil, err
		}
		params = append(params, prm)
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &KernelDecl{Name: nameTok.text, Params: params, Body: body}, nil
}

func (p *parser) param() (Param, error) {
	var prm Param
	for {
		t := p.cur()
		if t.kind != tokIdent {
			break
		}
		if sp, ok := qualifier(t.text); ok {
			prm.Space = sp
			p.advance()
			continue
		}
		if isSkippableQualifier(t.text) {
			p.advance()
			continue
		}
		break
	}
	t := p.cur()
	typ, ok := parseTypeName(t.text)
	if t.kind != tokIdent || !ok {
		return prm, p.errf(t, "expected parameter type, found %s", t)
	}
	p.advance()
	prm.Type = typ
	if p.accept("*") {
		prm.Pointer = true
	}
	for p.cur().kind == tokIdent && isSkippableQualifier(p.cur().text) {
		p.advance()
	}
	nt := p.cur()
	if nt.kind != tokIdent {
		return prm, p.errf(nt, "expected parameter name, found %s", nt)
	}
	p.advance()
	prm.Name = nt.text
	return prm, nil
}

func (p *parser) block() (*Block, error) {
	open, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	b := &Block{pos: pos{open.line, open.col}}
	for !p.accept("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf(p.cur(), "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

// startsDecl reports whether the upcoming tokens begin a declaration.
func (p *parser) startsDecl() bool {
	t := p.cur()
	if t.kind != tokIdent {
		return false
	}
	if _, ok := qualifier(t.text); ok {
		return true
	}
	if isSkippableQualifier(t.text) {
		return true
	}
	if _, ok := parseTypeName(t.text); ok {
		// Could also be a cast at statement level, which the generator
		// never emits; a declaration needs an identifier next.
		return p.peek().kind == tokIdent
	}
	return false
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tokPunct && t.text == "{":
		return p.block()
	case t.kind == tokIdent && t.text == "if":
		return p.ifStmt()
	case t.kind == tokIdent && t.text == "for":
		return p.forStmt()
	case p.startsDecl():
		d, err := p.decl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return d, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *parser) decl() (*Decl, error) {
	start := p.cur()
	d := &Decl{pos: pos{start.line, start.col}}
	for {
		t := p.cur()
		if t.kind != tokIdent {
			break
		}
		if sp, ok := qualifier(t.text); ok {
			d.Space = sp
			p.advance()
			continue
		}
		if isSkippableQualifier(t.text) {
			p.advance()
			continue
		}
		break
	}
	typ, ok := parseTypeName(p.cur().text)
	if p.cur().kind != tokIdent || !ok {
		return nil, p.errf(p.cur(), "expected type in declaration, found %s", p.cur())
	}
	p.advance()
	d.Type = typ
	nameTok := p.cur()
	if nameTok.kind != tokIdent {
		return nil, p.errf(nameTok, "expected variable name, found %s", nameTok)
	}
	p.advance()
	d.Name = nameTok.text
	if p.accept("[") {
		n, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.ArrayLen = n
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

// simpleStmt parses an assignment or expression statement (no ';').
func (p *parser) simpleStmt() (Stmt, error) {
	start := p.cur()
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "+=", "-=", "*=", "/=":
			p.advance()
			rhs, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &Assign{pos: pos{start.line, start.col}, Op: t.text, LHS: lhs, RHS: rhs}, nil
		case "++", "--":
			p.advance()
			op := "+="
			if t.text == "--" {
				op = "-="
			}
			one := &IntLit{pos: pos{t.line, t.col}, Value: 1}
			return &Assign{pos: pos{start.line, start.col}, Op: op, LHS: lhs, RHS: one}, nil
		}
	}
	return &ExprStmt{pos: pos{start.line, start.col}, X: lhs}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	start, _ := p.expect("if")
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	thenBlk, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	node := &If{pos: pos{start.line, start.col}, Cond: cond, Then: thenBlk}
	if p.accept("else") {
		if p.cur().kind == tokIdent && p.cur().text == "if" {
			node.Else, err = p.ifStmt()
		} else {
			var b *Block
			b, err = p.stmtAsBlock()
			node.Else = b
		}
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

func (p *parser) stmtAsBlock() (*Block, error) {
	if p.cur().kind == tokPunct && p.cur().text == "{" {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	line, col := s.Pos()
	return &Block{pos: pos{line, col}, Stmts: []Stmt{s}}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	start, _ := p.expect("for")
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	node := &For{pos: pos{start.line, start.col}}
	if !p.accept(";") {
		if p.startsDecl() {
			d, err := p.decl()
			if err != nil {
				return nil, err
			}
			node.Init = d
		} else {
			s, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			node.Init = s
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		node.Cond = cond
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !(p.cur().kind == tokPunct && p.cur().text == ")") {
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		node.Post = s
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	node.Body = body
	return node, nil
}

// --- Expressions (precedence climbing) --------------------------------------

var binaryLevels = [][]string{
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

func (p *parser) expr() (Expr, error) { return p.ternary() }

func (p *parser) ternary() (Expr, error) {
	c, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct && p.cur().text == "?" {
		q := p.advance()
		thenE, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(":"); err != nil {
			return nil, err
		}
		elseE, err := p.ternary()
		if err != nil {
			return nil, err
		}
		return &Cond{pos: pos{q.line, q.col}, C: c, T: thenE, F: elseE}, nil
	}
	return c, nil
}

func (p *parser) binary(level int) (Expr, error) {
	if level >= len(binaryLevels) {
		return p.unary()
	}
	lhs, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct || !contains(binaryLevels[level], t.text) {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.binary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{pos: pos{t.line, t.col}, Op: t.text, L: lhs, R: rhs}
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!" || t.text == "~" || t.text == "+") {
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		if t.text == "+" {
			return x, nil
		}
		return &Unary{pos: pos{t.line, t.col}, Op: t.text, X: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return x, nil
		}
		switch t.text {
		case "[":
			p.advance()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &Index{pos: pos{t.line, t.col}, X: x, Idx: idx}
		case "(":
			id, ok := x.(*Ident)
			if !ok {
				return nil, p.errf(t, "call of non-identifier")
			}
			p.advance()
			var args []Expr
			for !p.accept(")") {
				if len(args) > 0 {
					if _, err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			x = &Call{pos: pos{t.line, t.col}, Fun: id.Name, Args: args}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokIntLit:
		p.advance()
		text := strings.TrimRight(t.text, "uU")
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return nil, p.errf(t, "bad integer literal %q", t.text)
		}
		return &IntLit{pos: pos{t.line, t.col}, Value: v, Unsigned: len(text) < len(t.text)}, nil
	case tokFloatLit:
		p.advance()
		single := false
		text := t.text
		if strings.HasSuffix(text, "f") || strings.HasSuffix(text, "F") {
			single = true
			text = text[:len(text)-1]
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, p.errf(t, "bad float literal %q", t.text)
		}
		return &FloatLit{pos: pos{t.line, t.col}, Value: v, Single: single}, nil
	case tokIdent:
		p.advance()
		return &Ident{pos: pos{t.line, t.col}, Name: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			// Cast/constructor or parenthesized expression.
			if typ, ok := parseTypeName(p.peek().text); ok && p.peek().kind == tokIdent {
				// (type)(...)
				p.advance() // (
				p.advance() // type
				if _, err := p.expect(")"); err != nil {
					return nil, err
				}
				if _, err := p.expect("("); err != nil {
					return nil, err
				}
				var args []Expr
				for !p.accept(")") {
					if len(args) > 0 {
						if _, err := p.expect(","); err != nil {
							return nil, err
						}
					}
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
				}
				if len(args) == 0 {
					return nil, p.errf(t, "empty constructor for %s", typ)
				}
				return &Cast{pos: pos{t.line, t.col}, To: typ, Args: args}, nil
			}
			p.advance()
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, p.errf(t, "unexpected token %s in expression", t)
}
