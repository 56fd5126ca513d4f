package clc

import "fmt"

// builtinArity maps supported builtin functions to their argument
// counts (-1 = variadic not used here).
var builtinArity = map[string]int{
	"get_global_id":   1,
	"get_local_id":    1,
	"get_group_id":    1,
	"get_local_size":  1,
	"get_global_size": 1,
	"get_num_groups":  1,
	"barrier":         1,
	"mad":             3,
	"fma":             3,
	"min":             2,
	"max":             2,
	"vload2":          2,
	"vload4":          2,
	"vload8":          2,
	"vstore2":         3,
	"vstore4":         3,
	"vstore8":         3,
}

// builtinConsts are predefined identifiers.
var builtinConsts = map[string]int64{
	"CLK_LOCAL_MEM_FENCE":  1,
	"CLK_GLOBAL_MEM_FENCE": 2,
}

// symbol is a name the checker resolves: a variable with its register
// type, or an array with its element type.
type symbol struct {
	t   Type
	arr bool
}

type checker struct {
	scopes []map[string]symbol
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]symbol{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, s symbol, line, col int) error {
	top := c.scopes[len(c.scopes)-1]
	if _, ok := top[name]; ok {
		return &Error{Line: line, Col: col, Msg: fmt.Sprintf("redeclaration of %q", name)}
	}
	top[name] = s
	return nil
}

func (c *checker) lookup(name string) (symbol, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return symbol{}, false
}

// arrayElem is the element type of the array x names, if it names one.
func (c *checker) arrayElem(x Expr) (Type, bool) {
	if id, ok := x.(*Ident); ok {
		if s, ok := c.lookup(id.Name); ok && s.arr {
			return s.t, true
		}
	}
	return Type{}, false
}

// checkKernel performs the static checks: declared-before-use, no
// duplicate declarations per scope, assignable left-hand sides,
// builtin arities, constant array lengths, and top-level __local
// declarations being arrays (they become per-work-group storage). It
// also gives every expression its static type (see typeOf). A type
// fault is not a check failure: the compiler lowers it to an opErr, so
// it faults only when it runs.
func checkKernel(k *KernelDecl) error {
	c := &checker{}
	c.push()
	for _, p := range k.Params {
		// Scalar arguments and buffer elements are scalars whatever the
		// declared lane count (Bind checks the base).
		s := symbol{t: canon(Type{Base: p.Type.Base, Lanes: 1}), arr: p.Pointer}
		if err := c.declare(p.Name, s, 0, 0); err != nil {
			return fmt.Errorf("kernel %s: duplicate parameter %q", k.Name, p.Name)
		}
	}
	for _, s := range k.Body.Stmts {
		if d, ok := s.(*Decl); ok && d.Space == LocalMem && d.ArrayLen == nil {
			line, col := d.Pos()
			return fmt.Errorf("kernel %s: %w", k.Name, &Error{Line: line, Col: col, Msg: "scalar __local variables are not supported"})
		}
	}
	if err := c.block(k.Body); err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name, err)
	}
	return nil
}

func (c *checker) block(b *Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt) error {
	switch n := s.(type) {
	case *Decl:
		if n.Type.Base == BaseVoid {
			line, col := n.Pos()
			return &Error{Line: line, Col: col, Msg: fmt.Sprintf("%q declared void", n.Name)}
		}
		sym := symbol{t: canon(n.Type)}
		if n.ArrayLen != nil {
			if _, err := constFold(n.ArrayLen); err != nil {
				return err
			}
			if n.Init != nil {
				line, col := n.Pos()
				return &Error{Line: line, Col: col, Msg: "array initializers are not supported"}
			}
			sym = symbol{t: n.Type, arr: true}
		}
		if n.Init != nil {
			if _, err := c.expr(n.Init); err != nil {
				return err
			}
		}
		line, col := n.Pos()
		return c.declare(n.Name, sym, line, col)
	case *Assign:
		switch n.LHS.(type) {
		case *Ident, *Index:
		default:
			line, col := n.Pos()
			return &Error{Line: line, Col: col, Msg: "left-hand side is not assignable"}
		}
		if _, err := c.expr(n.LHS); err != nil {
			return err
		}
		_, err := c.expr(n.RHS)
		return err
	case *ExprStmt:
		_, err := c.expr(n.X)
		return err
	case *If:
		if _, err := c.expr(n.Cond); err != nil {
			return err
		}
		if err := c.block(n.Then); err != nil {
			return err
		}
		if n.Else != nil {
			return c.stmt(n.Else)
		}
		return nil
	case *For:
		c.push()
		defer c.pop()
		if n.Init != nil {
			if err := c.stmt(n.Init); err != nil {
				return err
			}
		}
		if n.Cond != nil {
			if _, err := c.expr(n.Cond); err != nil {
				return err
			}
		}
		if n.Post != nil {
			if err := c.stmt(n.Post); err != nil {
				return err
			}
		}
		return c.block(n.Body)
	case *Block:
		return c.block(n)
	}
	return nil
}

// expr checks e and records its static type, which it also returns. An
// expression that faults when it runs gets the type int: code after the
// fault never runs, so any type serves its consumers.
func (c *checker) expr(e Expr) (Type, error) {
	t, err := c.exprType(e)
	*e.staticType() = t
	return t, err
}

func (c *checker) exprType(e Expr) (Type, error) {
	switch n := e.(type) {
	case *IntLit:
		if n.Unsigned {
			return typeUintScalar, nil
		}
		return intType, nil
	case *FloatLit:
		if n.Single {
			return typeFloatScalar, nil
		}
		return typeDoubleScalar, nil
	case *Ident:
		if _, ok := builtinConsts[n.Name]; ok {
			return intType, nil // builtin constants shadow declarations
		}
		s, ok := c.lookup(n.Name)
		if !ok {
			line, col := n.Pos()
			return Type{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("undeclared identifier %q", n.Name)}
		}
		if s.arr {
			return intType, nil // an array used as a value faults
		}
		return s.t, nil
	case *Binary:
		l, err := c.expr(n.L)
		if err != nil {
			return Type{}, err
		}
		r, err := c.expr(n.R)
		if err != nil {
			return Type{}, err
		}
		op, ok := arithIdx[n.Op]
		if !ok {
			return intType, nil // && and || yield an int too
		}
		_, res, _ := binType(op, l, r)
		return res, nil
	case *Unary:
		t, err := c.expr(n.X)
		if n.Op != "-" {
			t = intType
		}
		return t, err
	case *Cond:
		var ts [3]Type
		for i, x := range []Expr{n.C, n.T, n.F} {
			t, err := c.expr(x)
			if err != nil {
				return Type{}, err
			}
			ts[i] = t
		}
		t, _ := condType(ts[1], ts[2])
		return t, nil
	case *Call:
		arity, ok := builtinArity[n.Fun]
		if !ok {
			line, col := n.Pos()
			return Type{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unknown function %q", n.Fun)}
		}
		if arity >= 0 && len(n.Args) != arity {
			line, col := n.Pos()
			return Type{}, &Error{Line: line, Col: col,
				Msg: fmt.Sprintf("%s expects %d arguments, got %d", n.Fun, arity, len(n.Args))}
		}
		var ts [3]Type // no builtin takes more arguments
		for i, a := range n.Args {
			t, err := c.expr(a)
			if err != nil {
				return Type{}, err
			}
			ts[i] = t
		}
		switch n.Fun {
		case "mad", "fma":
			t, _ := madType(ts[0], ts[1], ts[2])
			return t, nil
		case "min", "max":
			return minMaxType(ts[0], ts[1]), nil
		case "vload2", "vload4", "vload8":
			if et, ok := c.arrayElem(n.Args[1]); ok && et.Lanes == 1 && !et.IsInt() {
				return Type{Base: et.Base, Lanes: int(n.Fun[5] - '0')}, nil
			}
		}
		return intType, nil
	case *Index:
		if _, err := c.expr(n.X); err != nil {
			return Type{}, err
		}
		if _, err := c.expr(n.Idx); err != nil {
			return Type{}, err
		}
		if et, ok := c.arrayElem(n.X); ok && !et.IsInt() {
			return et, nil
		}
		return intType, nil
	case *Cast:
		if n.To.Lanes > 1 && len(n.Args) != 1 && len(n.Args) != n.To.Lanes {
			line, col := n.Pos()
			return Type{}, &Error{Line: line, Col: col,
				Msg: fmt.Sprintf("constructor for %s needs 1 or %d arguments", n.To, n.To.Lanes)}
		}
		for _, a := range n.Args {
			if _, err := c.expr(a); err != nil {
				return Type{}, err
			}
		}
		return canon(n.To), nil
	}
	return intType, nil
}

// constFold evaluates an integer constant expression.
func constFold(e Expr) (int64, error) {
	switch n := e.(type) {
	case *IntLit:
		return n.Value, nil
	case *Unary:
		v, err := constFold(n.X)
		if err != nil {
			return 0, err
		}
		if n.Op == "-" {
			return -v, nil
		}
		return 0, errAt(e, "non-constant unary operator")
	case *Binary:
		l, err := constFold(n.L)
		if err != nil {
			return 0, err
		}
		r, err := constFold(n.R)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, errAt(e, "constant division by zero")
			}
			return l / r, nil
		}
		return 0, errAt(e, "non-constant operator %q", n.Op)
	}
	return 0, errAt(e, "array length is not a constant expression")
}

func errAt(e Expr, format string, args ...any) *Error {
	line, col := e.Pos()
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
