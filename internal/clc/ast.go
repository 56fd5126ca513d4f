package clc

import (
	"fmt"
	"sync"
)

// BaseType is a value type's scalar base. Type tests compare these
// small integers; String renders the OpenCL C names.
type BaseType uint8

const (
	// baseNone is the zero Type's base: no type information.
	baseNone BaseType = iota
	BaseInt
	BaseUint
	BaseFloat
	BaseDouble
	BaseVoid
)

var baseNames = [...]string{
	baseNone:   "",
	BaseInt:    "int",
	BaseUint:   "uint",
	BaseFloat:  "float",
	BaseDouble: "double",
	BaseVoid:   "void",
}

func (b BaseType) String() string { return baseNames[b] }

// Type describes an OpenCL C value type in the supported subset.
type Type struct {
	// Base is one of BaseInt, BaseUint, BaseFloat, BaseDouble, BaseVoid.
	Base BaseType
	// Lanes is the vector width (1 for scalars).
	Lanes int
}

func (t Type) String() string {
	if t.Lanes > 1 {
		return fmt.Sprintf("%s%d", t.Base, t.Lanes)
	}
	return t.Base.String()
}

// IsInt reports int/uint bases.
func (t Type) IsInt() bool { return t.Base == BaseInt || t.Base == BaseUint }

// parseTypeName recognizes a type name like "double2".
func parseTypeName(s string) (Type, bool) {
	for _, base := range []BaseType{BaseDouble, BaseFloat, BaseUint, BaseInt, BaseVoid} {
		name := base.String()
		if s == name {
			return Type{Base: base, Lanes: 1}, true
		}
		if len(s) > len(name) && s[:len(name)] == name {
			switch s[len(name):] {
			case "2":
				return Type{Base: base, Lanes: 2}, true
			case "4":
				return Type{Base: base, Lanes: 4}, true
			case "8":
				return Type{Base: base, Lanes: 8}, true
			case "16":
				return Type{Base: base, Lanes: 16}, true
			}
		}
	}
	return Type{}, false
}

// AddressSpace of a declaration or parameter.
type AddressSpace int

const (
	// Private is default work-item storage.
	Private AddressSpace = iota
	// LocalMem is __local (work-group shared).
	LocalMem
	// GlobalMem is __global (kernel buffer arguments).
	GlobalMem
)

// --- Expressions -----------------------------------------------------------

// Expr is an expression node.
type Expr interface {
	exprNode()
	Pos() (line, col int)
	staticType() *Type
}

type pos struct{ line, col int }

func (p pos) Pos() (int, int) { return p.line, p.col }

// typed holds the static type the checker gives an expression (see
// check.go): the type of the register the compiler evaluates it into.
type typed struct{ t Type }

func (x *typed) staticType() *Type { return &x.t }

// typeOf returns e's static type.
func typeOf(e Expr) Type { return *e.staticType() }

// IntLit is an integer literal; Unsigned marks a 'u' suffix.
type IntLit struct {
	pos
	typed
	Value    int64
	Unsigned bool
}

// FloatLit is a floating literal; Single marks an 'f' suffix.
type FloatLit struct {
	pos
	typed
	Value  float64
	Single bool
}

// Ident is a name reference.
type Ident struct {
	pos
	typed
	Name string
}

// Binary is a binary operation.
type Binary struct {
	pos
	typed
	Op   string
	L, R Expr
}

// Unary is a prefix operation (-, !, ~).
type Unary struct {
	pos
	typed
	Op string
	X  Expr
}

// Cond is the ternary operator.
type Cond struct {
	pos
	typed
	C, T, F Expr
}

// Call is a function invocation.
type Call struct {
	pos
	typed
	Fun  string
	Args []Expr
}

// Index is arr[i].
type Index struct {
	pos
	typed
	X   Expr
	Idx Expr
}

// Cast is (type)(args...): a scalar conversion, a vector broadcast
// (one argument), or a vector constructor (Lanes arguments).
type Cast struct {
	pos
	typed
	To   Type
	Args []Expr
}

func (*IntLit) exprNode()   {}
func (*FloatLit) exprNode() {}
func (*Ident) exprNode()    {}
func (*Binary) exprNode()   {}
func (*Unary) exprNode()    {}
func (*Cond) exprNode()     {}
func (*Call) exprNode()     {}
func (*Index) exprNode()    {}
func (*Cast) exprNode()     {}

// --- Statements ------------------------------------------------------------

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	Pos() (line, col int)
}

// Decl declares a scalar/vector variable or an array.
type Decl struct {
	pos
	Space    AddressSpace
	Type     Type
	Name     string
	ArrayLen Expr // nil for scalars; constant expression
	Init     Expr // nil when absent
}

// Assign is lhs op rhs where op ∈ {=, +=, -=, *=, /=}.
type Assign struct {
	pos
	Op  string
	LHS Expr // Ident or Index
	RHS Expr
}

// ExprStmt is a bare call (barrier, vstore).
type ExprStmt struct {
	pos
	X Expr
}

// If is a conditional.
type If struct {
	pos
	Cond Expr
	Then *Block
	Else Stmt // *Block, *If or nil
}

// For is for(init; cond; post) body. Init is *Decl or *Assign or nil;
// Post is *Assign or nil.
type For struct {
	pos
	Init Stmt
	Cond Expr
	Post Stmt
	Body *Block
}

// Block is { stmts }.
type Block struct {
	pos
	Stmts []Stmt
}

func (*Decl) stmtNode()     {}
func (*Assign) stmtNode()   {}
func (*ExprStmt) stmtNode() {}
func (*If) stmtNode()       {}
func (*For) stmtNode()      {}
func (*Block) stmtNode()    {}

// --- Top level ---------------------------------------------------------------

// Param is one kernel parameter.
type Param struct {
	Space   AddressSpace
	Type    Type
	Pointer bool
	Name    string
}

// KernelDecl is a __kernel void f(params) { body }.
type KernelDecl struct {
	Name   string
	Params []Param
	Body   *Block

	// Bytecode compilation is cached per declaration: the program
	// depends only on the AST, so every Bind shares one compile. The
	// optimized program is cached the same way (see optimize.go).
	compileOnce sync.Once
	compiled    *compiledKernel
	compileErr  error

	optimizeOnce  sync.Once
	optimizedProg *compiledKernel
}

// Program is a parsed translation unit.
type Program struct {
	Kernels []*KernelDecl
	Source  string
}

// Kernel finds a kernel by name.
func (p *Program) Kernel(name string) (*KernelDecl, error) {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("clc: no kernel %q in program", name)
}
