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

type checker struct {
	scopes []map[string]bool
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]bool{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, line, col int) error {
	top := c.scopes[len(c.scopes)-1]
	if top[name] {
		return &Error{Line: line, Col: col, Msg: fmt.Sprintf("redeclaration of %q", name)}
	}
	top[name] = true
	return nil
}

func (c *checker) resolved(name string) bool {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if c.scopes[i][name] {
			return true
		}
	}
	_, isConst := builtinConsts[name]
	return isConst
}

// checkKernel performs the static checks: declared-before-use, no
// duplicate declarations per scope, assignable left-hand sides,
// builtin arities, constant array lengths, and top-level __local
// declarations being arrays (they become per-work-group storage).
func checkKernel(k *KernelDecl) error {
	c := &checker{}
	c.push()
	for _, p := range k.Params {
		if err := c.declare(p.Name, 0, 0); err != nil {
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
		if n.ArrayLen != nil {
			if _, err := constFold(n.ArrayLen); err != nil {
				return err
			}
			if n.Init != nil {
				line, col := n.Pos()
				return &Error{Line: line, Col: col, Msg: "array initializers are not supported"}
			}
		}
		if n.Init != nil {
			if err := c.expr(n.Init); err != nil {
				return err
			}
		}
		line, col := n.Pos()
		return c.declare(n.Name, line, col)
	case *Assign:
		switch n.LHS.(type) {
		case *Ident, *Index:
		default:
			line, col := n.Pos()
			return &Error{Line: line, Col: col, Msg: "left-hand side is not assignable"}
		}
		if err := c.expr(n.LHS); err != nil {
			return err
		}
		return c.expr(n.RHS)
	case *ExprStmt:
		return c.expr(n.X)
	case *If:
		if err := c.expr(n.Cond); err != nil {
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
			if err := c.expr(n.Cond); err != nil {
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

func (c *checker) expr(e Expr) error {
	switch n := e.(type) {
	case *IntLit, *FloatLit:
		return nil
	case *Ident:
		if !c.resolved(n.Name) {
			line, col := n.Pos()
			return &Error{Line: line, Col: col, Msg: fmt.Sprintf("undeclared identifier %q", n.Name)}
		}
		return nil
	case *Binary:
		if err := c.expr(n.L); err != nil {
			return err
		}
		return c.expr(n.R)
	case *Unary:
		return c.expr(n.X)
	case *Cond:
		for _, x := range []Expr{n.C, n.T, n.F} {
			if err := c.expr(x); err != nil {
				return err
			}
		}
		return nil
	case *Call:
		arity, ok := builtinArity[n.Fun]
		if !ok {
			line, col := n.Pos()
			return &Error{Line: line, Col: col, Msg: fmt.Sprintf("unknown function %q", n.Fun)}
		}
		if arity >= 0 && len(n.Args) != arity {
			line, col := n.Pos()
			return &Error{Line: line, Col: col,
				Msg: fmt.Sprintf("%s expects %d arguments, got %d", n.Fun, arity, len(n.Args))}
		}
		for _, a := range n.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		return nil
	case *Index:
		if err := c.expr(n.X); err != nil {
			return err
		}
		return c.expr(n.Idx)
	case *Cast:
		if n.To.Lanes > 1 && len(n.Args) != 1 && len(n.Args) != n.To.Lanes {
			line, col := n.Pos()
			return &Error{Line: line, Col: col,
				Msg: fmt.Sprintf("constructor for %s needs 1 or %d arguments", n.To, n.To.Lanes)}
		}
		for _, a := range n.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
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
