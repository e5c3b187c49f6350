package cc

import (
	"fmt"

	"mosaicsim/internal/ir"
)

// CType is a front-end type: a scalar IR type, optionally a pointer to one.
type CType struct {
	Kind ir.Type
	Ptr  bool
}

func (t CType) String() string {
	if t.Ptr {
		return t.Kind.String() + "*"
	}
	return t.Kind.String()
}

func scalar(k ir.Type) CType  { return CType{Kind: k} }
func pointer(k ir.Type) CType { return CType{Kind: k, Ptr: true} }

// File is a parsed source file.
type File struct {
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
}

// GlobalDecl declares a module-level array: `global double lut[256];`.
type GlobalDecl struct {
	Name  string
	Elem  ir.Type
	Count int64
	Line  int
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Ret    CType
	Params []ParamDecl
	Body   *BlockStmt
	Line   int
}

// ParamDecl is one formal parameter.
type ParamDecl struct {
	Name string
	Type CType
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is `{ ... }`.
type BlockStmt struct {
	Stmts []Stmt
	Line  int
}

// DeclStmt declares a local variable with an optional initializer.
type DeclStmt struct {
	Name string
	Type CType
	Init Expr // nil means zero value
	Line int
}

// AssignStmt assigns to an identifier or an indexed location. Op is "=" or a
// compound operator ("+=", "<<=", ...).
type AssignStmt struct {
	Target Expr // *Ident or *IndexExpr or *DerefExpr
	Op     string
	Value  Expr
	Line   int
}

// IncDecStmt is `x++;` / `x--;` (statement-level only).
type IncDecStmt struct {
	Target Expr
	Inc    bool
	Line   int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt, or nil
	Line int
}

// ForStmt is a C-style for loop. Init/Post may be nil.
type ForStmt struct {
	Init Stmt // DeclStmt, AssignStmt or IncDecStmt
	Cond Expr // nil means true
	Post Stmt
	Body *BlockStmt
	Line int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body *BlockStmt
	Line int
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line int }

// ReturnStmt returns from the kernel. Value may be nil.
type ReturnStmt struct {
	Value Expr
	Line  int
}

// ExprStmt evaluates an expression for side effects (calls).
type ExprStmt struct {
	X    Expr
	Line int
}

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*IncDecStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// Ident references a variable, parameter, or global.
type Ident struct {
	Name string
	Line int
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Line  int
}

// FloatLit is a floating literal.
type FloatLit struct {
	Value float64
	Line  int
}

// BoolLit is true/false.
type BoolLit struct {
	Value bool
	Line  int
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   string
	L, R Expr
	Line int
}

// UnaryExpr is -x, !x, ~x.
type UnaryExpr struct {
	Op   string
	X    Expr
	Line int
}

// CallExpr invokes an intrinsic or accelerator.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
}

// IndexExpr is base[idx]; base must be a pointer.
type IndexExpr struct {
	Base Expr
	Idx  Expr
	Line int
}

// DerefExpr is *p, equivalent to p[0].
type DerefExpr struct {
	X    Expr
	Line int
}

// CastExpr is a C-style cast `(double)x`.
type CastExpr struct {
	To   CType
	X    Expr
	Line int
}

// CondExpr is the ternary `c ? a : b`. Both arms are evaluated (they must be
// side-effect free); selection uses the IR select instruction.
type CondExpr struct {
	Cond, Then, Else Expr
	Line             int
}

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*BoolLit) exprNode()    {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*IndexExpr) exprNode()  {}
func (*DerefExpr) exprNode()  {}
func (*CastExpr) exprNode()   {}
func (*CondExpr) exprNode()   {}

// Error is a front-end compile error with a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("cc: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}
