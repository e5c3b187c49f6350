package cc

import (
	"errors"
	"fmt"

	"mosaicsim/internal/ir"
)

// VerifyError reports a compiled module that fails IR verification — always
// a compiler or pass bug, never a property of the source program. Pass names
// the optimization pass whose output failed, or is empty when the front end's
// own build failed verification.
type VerifyError struct {
	Module string // module name
	Pass   string // pass that produced the invalid IR, "" for the front end
	Err    error  // the underlying *ir.VerifyError / *ir.PassError
}

func (e *VerifyError) Error() string {
	if e.Pass != "" {
		return fmt.Sprintf("cc: internal error, module %s fails verification after pass %q: %v", e.Module, e.Pass, e.Err)
	}
	return fmt.Sprintf("cc: internal error, generated IR for module %s fails verification: %v", e.Module, e.Err)
}

func (e *VerifyError) Unwrap() error { return e.Err }

// Compile parses and compiles mini-C source into a verified IR module at O0.
// Every function in the file becomes an IR function; scalars are fully
// promoted to SSA registers (the front end emits no loads/stores for locals,
// mirroring LLVM -O3 kernels, so the memory trace contains only real array
// traffic).
func Compile(src, moduleName string) (*ir.Module, error) {
	return CompileWithOpt(src, moduleName, ir.OptConfig{})
}

// CompileWithOpt is Compile followed by the optimization pipeline opt
// selects: the front end builds and verifies the module, then ir.Pipeline
// runs the resolved pass list with re-verification after every pass. The
// zero OptConfig (O0) runs no passes and is bit-identical to Compile.
func CompileWithOpt(src, moduleName string, opt ir.OptConfig) (*ir.Module, error) {
	file, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	mod, err := compileASTO0(file, moduleName)
	if err != nil {
		return nil, err
	}
	pipe, err := ir.NewPipeline(opt)
	if err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}
	if err := pipe.Run(mod); err != nil {
		ve := &VerifyError{Module: moduleName, Err: err}
		var pe *ir.PassError
		if errors.As(err, &pe) {
			ve.Pass = pe.Pass
		}
		return nil, ve
	}
	return mod, nil
}

// compileASTO0 lowers the AST to verified, unoptimized IR.
func compileASTO0(file *File, moduleName string) (*ir.Module, error) {
	mod := ir.NewModule(moduleName)
	globals := map[string]*ir.Global{}
	for _, g := range file.Globals {
		if globals[g.Name] != nil {
			return nil, errf(g.Line, "duplicate global %q", g.Name)
		}
		globals[g.Name] = mod.AddGlobal(g.Name, g.Elem, g.Count)
	}
	allFuncs := map[string]*FuncDecl{}
	for _, fd := range file.Funcs {
		if allFuncs[fd.Name] != nil {
			return nil, errf(fd.Line, "duplicate function %q", fd.Name)
		}
		allFuncs[fd.Name] = fd
	}
	for _, fd := range file.Funcs {
		c := &compiler{mod: mod, globals: globals, fd: fd, allFuncs: allFuncs}
		if err := c.compileFunc(); err != nil {
			return nil, err
		}
	}
	if err := ir.VerifyModule(mod); err != nil {
		return nil, &VerifyError{Module: moduleName, Err: err}
	}
	return mod, nil
}

// MustCompile is Compile that panics on error; for tests and embedded kernels.
func MustCompile(src, moduleName string) *ir.Module {
	m, err := Compile(src, moduleName)
	if err != nil {
		panic(err)
	}
	return m
}

// variable is one declared local (or parameter): its front-end type and the
// SSA value currently reaching the point of compilation.
type variable struct {
	name string
	ty   CType
	cur  ir.Value
}

// scope is an ordered name table; order keeps generated phis deterministic.
type scope struct {
	names []string
	vars  map[string]*variable
}

func newScope() *scope { return &scope{vars: map[string]*variable{}} }

// inlineCtx is one active function inlining: returns in the body assign the
// result variable and branch to the continuation.
type inlineCtx struct {
	name   string
	retTy  CType
	retVar *variable // nil for void
	cont   *ir.Block
	edges  []edge
}

type loopCtx struct {
	latchB     *ir.Block // continue target (runs the post statement)
	exitB      *ir.Block // break target
	exitEdges  []edge    // break sites
	latchEdges []edge    // continue sites and natural body fallthrough
}

// edge is a control-flow edge into a join point with the variable state that
// flows along it.
type edge struct {
	from *ir.Block
	env  map[*variable]ir.Value
}

type compiler struct {
	mod      *ir.Module
	globals  map[string]*ir.Global
	fd       *FuncDecl
	allFuncs map[string]*FuncDecl
	b        *ir.Builder
	scopes   []*scope
	loops    []*loopCtx
	// inlines tracks active user-function inlining (calls are always
	// inlined, as an optimizing compiler would for kernel helpers).
	inlines  []*inlineCtx
	retNames int
	// terminated is true when the current block already ended (return,
	// break, continue); remaining statements in the enclosing block are dead
	// code and skipped.
	terminated bool
	nblk       int
}

func (c *compiler) pushScope() { c.scopes = append(c.scopes, newScope()) }
func (c *compiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }
func (c *compiler) lookup(name string) *variable {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i].vars[name]; ok {
			return v
		}
	}
	return nil
}

func (c *compiler) declare(line int, name string, ty CType, val ir.Value) (*variable, error) {
	s := c.scopes[len(c.scopes)-1]
	if _, dup := s.vars[name]; dup {
		return nil, errf(line, "redeclaration of %q", name)
	}
	v := &variable{name: name, ty: ty, cur: val}
	s.vars[name] = v
	s.names = append(s.names, name)
	return v, nil
}

// snapshot records the reaching value of every in-scope variable.
func (c *compiler) snapshot() map[*variable]ir.Value {
	m := map[*variable]ir.Value{}
	for _, s := range c.scopes {
		for _, n := range s.names {
			v := s.vars[n]
			m[v] = v.cur
		}
	}
	return m
}

// restore resets every variable in snap to its recorded value.
func (c *compiler) restore(snap map[*variable]ir.Value) {
	for v, val := range snap {
		v.cur = val
	}
}

// liveVars lists the in-scope variables in deterministic declaration order.
func (c *compiler) liveVars() []*variable {
	var out []*variable
	for _, s := range c.scopes {
		for _, n := range s.names {
			out = append(out, s.vars[n])
		}
	}
	return out
}

func (c *compiler) newBlock(hint string) *ir.Block {
	c.nblk++
	name := fmt.Sprintf("%s%d", hint, c.nblk)
	// Create without making current.
	blk := &ir.Block{Ident: name, Parent: c.b.Fn}
	c.b.Fn.Blocks = append(c.b.Fn.Blocks, blk)
	return blk
}

// mergeInto makes target the current block and merges the variable states of
// the incoming edges, inserting phis where values differ. Every edge's
// terminator must already branch to target. Variables are merged only if
// present in every edge's snapshot.
func (c *compiler) mergeInto(target *ir.Block, edges []edge) {
	c.b.SetBlock(target)
	c.terminated = false
	if len(edges) == 0 {
		// Unreachable join; leave variable state as-is and emit an
		// unreachable terminator later via normal flow.
		return
	}
	for _, v := range c.liveVars() {
		first, ok := edges[0].env[v]
		if !ok {
			continue
		}
		same := true
		for _, e := range edges[1:] {
			val, ok := e.env[v]
			if !ok {
				same = false
				break
			}
			if val != first {
				same = false
				break
			}
		}
		if same {
			v.cur = first
			continue
		}
		phi := c.b.Phi(v.ty.irType())
		for _, e := range edges {
			val, ok := e.env[v]
			if !ok {
				val = first
			}
			ir.AddIncoming(phi, val, e.from)
		}
		v.cur = phi
	}
}

func (t CType) irType() ir.Type {
	if t.Ptr {
		return ir.Ptr
	}
	return t.Kind
}

func (c *compiler) compileFunc() error {
	fd := c.fd
	var params []*ir.Param
	for _, pd := range fd.Params {
		params = append(params, ir.NewParam(pd.Name, pd.Type.irType()))
	}
	c.b = ir.NewBuilder(c.mod)
	c.b.NewFunc(fd.Name, params...)
	c.pushScope()
	for i, pd := range fd.Params {
		if _, err := c.declare(fd.Line, pd.Name, pd.Type, params[i]); err != nil {
			return err
		}
	}
	if err := c.genBlock(fd.Body); err != nil {
		return err
	}
	if !c.terminated {
		if fd.Ret.Kind != ir.Void {
			return errf(fd.Line, "function %q may fall off the end without returning a value", fd.Name)
		}
		c.b.Ret(nil)
	}
	c.popScope()
	return nil
}

func (c *compiler) genBlock(b *BlockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if c.terminated {
			// Dead code after return/break/continue is skipped, as a
			// compiler would eliminate it.
			break
		}
		if err := c.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return c.genBlock(st)
	case *DeclStmt:
		return c.genDecl(st)
	case *AssignStmt:
		return c.genAssign(st)
	case *IncDecStmt:
		op := "+="
		if !st.Inc {
			op = "-="
		}
		return c.genAssign(&AssignStmt{Target: st.Target, Op: op, Value: &IntLit{Value: 1, Line: st.Line}, Line: st.Line})
	case *IfStmt:
		return c.genIf(st)
	case *ForStmt:
		return c.genFor(st)
	case *WhileStmt:
		// while (c) body  ==  for (; c; ) body
		return c.genFor(&ForStmt{Cond: st.Cond, Body: st.Body, Line: st.Line})
	case *BreakStmt:
		if len(c.loops) == 0 {
			return errf(st.Line, "break outside a loop")
		}
		lc := c.loops[len(c.loops)-1]
		lc.exitEdges = append(lc.exitEdges, edge{from: c.b.Cur, env: c.snapshot()})
		c.b.Br(lc.exitB)
		c.terminated = true
		return nil
	case *ContinueStmt:
		if len(c.loops) == 0 {
			return errf(st.Line, "continue outside a loop")
		}
		lc := c.loops[len(c.loops)-1]
		lc.latchEdges = append(lc.latchEdges, edge{from: c.b.Cur, env: c.snapshot()})
		c.b.Br(lc.latchB)
		c.terminated = true
		return nil
	case *ReturnStmt:
		if len(c.inlines) > 0 {
			// Return from an inlined function: assign the result and branch
			// to the continuation.
			ic := c.inlines[len(c.inlines)-1]
			if st.Value == nil {
				if ic.retTy.Kind != ir.Void {
					return errf(st.Line, "return without a value in non-void function %q", ic.name)
				}
			} else {
				if ic.retTy.Kind == ir.Void {
					return errf(st.Line, "return with a value in void function %q", ic.name)
				}
				v, ty, err := c.genExpr(st.Value)
				if err != nil {
					return err
				}
				cv, err := c.convert(st.Line, v, ty, ic.retTy)
				if err != nil {
					return err
				}
				ic.retVar.cur = cv
			}
			ic.edges = append(ic.edges, edge{from: c.b.Cur, env: c.snapshot()})
			c.b.Br(ic.cont)
			c.terminated = true
			return nil
		}
		if st.Value == nil {
			if c.fd.Ret.Kind != ir.Void {
				return errf(st.Line, "return without a value in non-void function")
			}
			c.b.Ret(nil)
		} else {
			if c.fd.Ret.Kind == ir.Void {
				return errf(st.Line, "return with a value in void function")
			}
			v, ty, err := c.genExpr(st.Value)
			if err != nil {
				return err
			}
			cv, err := c.convert(st.Line, v, ty, c.fd.Ret)
			if err != nil {
				return err
			}
			c.b.Ret(cv)
		}
		c.terminated = true
		return nil
	case *ExprStmt:
		_, _, err := c.genExpr(st.X)
		return err
	default:
		return errf(0, "unhandled statement %T", s)
	}
}

func (c *compiler) genDecl(st *DeclStmt) error {
	declTy := st.Type
	var val ir.Value
	if st.Init != nil {
		v, ty, err := c.genExpr(st.Init)
		if err != nil {
			return err
		}
		cv, err := c.convert(st.Line, v, ty, declTy)
		if err != nil {
			return err
		}
		val = cv
	} else {
		if declTy.Kind == ir.Void && !declTy.Ptr {
			return errf(st.Line, "cannot infer the type of %q without an initializer", st.Name)
		}
		val = zeroValue(declTy)
	}
	_, err := c.declare(st.Line, st.Name, declTy, val)
	return err
}

func zeroValue(t CType) ir.Value {
	if t.Ptr {
		return &ir.Const{Ty: ir.Ptr, Bits: 0}
	}
	if t.Kind.IsFloat() {
		return ir.ConstFloat(t.Kind, 0)
	}
	return ir.ConstInt(t.Kind, 0)
}

func (c *compiler) genAssign(st *AssignStmt) error {
	binOp := ""
	if st.Op != "=" {
		binOp = st.Op[:len(st.Op)-1] // "+=" -> "+"
	}
	switch target := st.Target.(type) {
	case *Ident:
		v := c.lookup(target.Name)
		if v == nil {
			return errf(st.Line, "assignment to undeclared variable %q", target.Name)
		}
		rhs := st.Value
		if binOp != "" {
			rhs = &BinaryExpr{Op: binOp, L: target, R: st.Value, Line: st.Line}
		}
		val, ty, err := c.genExpr(rhs)
		if err != nil {
			return err
		}
		cv, err := c.convert(st.Line, val, ty, v.ty)
		if err != nil {
			return err
		}
		v.cur = cv
		return nil
	case *IndexExpr, *DerefExpr:
		addr, elemTy, err := c.genAddr(st.Target)
		if err != nil {
			return err
		}
		var val ir.Value
		var ty CType
		if binOp == "" {
			val, ty, err = c.genExpr(st.Value)
		} else {
			old := c.b.Load(elemTy.irType(), addr)
			rv, rty, e2 := c.genExpr(st.Value)
			if e2 != nil {
				return e2
			}
			val, ty, err = c.genBinOp(st.Line, binOp, old, elemTy, rv, rty)
		}
		if err != nil {
			return err
		}
		cv, err := c.convert(st.Line, val, ty, elemTy)
		if err != nil {
			return err
		}
		c.b.Store(cv, addr)
		return nil
	default:
		return errf(st.Line, "invalid assignment target")
	}
}

// genAddr computes the address and element type of an lvalue.
func (c *compiler) genAddr(e Expr) (ir.Value, CType, error) {
	switch x := e.(type) {
	case *IndexExpr:
		base, bty, err := c.genExpr(x.Base)
		if err != nil {
			return nil, CType{}, err
		}
		if !bty.Ptr {
			return nil, CType{}, errf(x.Line, "indexing a non-pointer (%s)", bty)
		}
		idx, ity, err := c.genExpr(x.Idx)
		if err != nil {
			return nil, CType{}, err
		}
		idx64, err := c.convert(x.Line, idx, ity, scalar(ir.I64))
		if err != nil {
			return nil, CType{}, err
		}
		addr := c.b.GEP(base, idx64, bty.Kind.Size())
		return addr, scalar(bty.Kind), nil
	case *DerefExpr:
		p, pty, err := c.genExpr(x.X)
		if err != nil {
			return nil, CType{}, err
		}
		if !pty.Ptr {
			return nil, CType{}, errf(x.Line, "dereferencing a non-pointer (%s)", pty)
		}
		return p, scalar(pty.Kind), nil
	default:
		return nil, CType{}, errf(0, "expression is not addressable")
	}
}

func (c *compiler) genIf(st *IfStmt) error {
	cond, err := c.genCond(st.Cond)
	if err != nil {
		return err
	}
	thenB := c.newBlock("if.then")
	var elseB *ir.Block
	joinB := c.newBlock("if.join")
	if st.Else != nil {
		elseB = c.newBlock("if.else")
		c.b.CondBr(cond, thenB, elseB)
	} else {
		c.b.CondBr(cond, thenB, joinB)
	}
	base := c.snapshot()
	var edges []edge
	if st.Else == nil {
		edges = append(edges, edge{from: c.b.Cur, env: c.snapshot()})
	}

	c.b.SetBlock(thenB)
	c.terminated = false
	if err := c.genBlock(st.Then); err != nil {
		return err
	}
	if !c.terminated {
		edges = append(edges, edge{from: c.b.Cur, env: c.snapshot()})
		c.b.Br(joinB)
	}
	c.restore(base)

	if st.Else != nil {
		c.b.SetBlock(elseB)
		c.terminated = false
		if err := c.genStmt(st.Else); err != nil {
			return err
		}
		if !c.terminated {
			edges = append(edges, edge{from: c.b.Cur, env: c.snapshot()})
			c.b.Br(joinB)
		}
		c.restore(base)
	}

	c.mergeInto(joinB, edges)
	if len(edges) == 0 {
		// Both arms terminated: the join is unreachable but must still be a
		// well-formed block.
		c.b.Ret(nil)
		if c.fd.Ret.Kind != ir.Void {
			// Keep verifier-clean even for non-void kernels.
			joinB.Instrs = joinB.Instrs[:0]
			c.b.SetBlock(joinB)
			c.b.Ret(zeroValue(c.fd.Ret))
		}
		c.terminated = true
	}
	return nil
}

// genFor lowers a C for loop:
//
//	preheader: init; br header
//	header:    phis for loop-carried vars; cond; condbr body, exit
//	body:      ...; falls through / continue -> latch
//	latch:     post; br header      (the only back edge)
//	exit:      merge of cond-false and break edges
func (c *compiler) genFor(st *ForStmt) error {
	c.pushScope() // scope for init declarations, spans the whole loop
	defer c.popScope()
	if st.Init != nil {
		if err := c.genStmt(st.Init); err != nil {
			return err
		}
	}

	assigned := c.assignedIn(st)
	headerB := c.newBlock("loop.head")
	preBlock := c.b.Cur
	c.b.Br(headerB)
	c.b.SetBlock(headerB)

	// Loop-carried variables get header phis; the back-edge value is wired
	// after the latch is generated.
	phis := make(map[*variable]*ir.Instr)
	var phiOrder []*variable
	for _, v := range c.liveVars() {
		if !assigned[v] {
			continue
		}
		phi := c.b.Phi(v.ty.irType())
		ir.AddIncoming(phi, v.cur, preBlock)
		v.cur = phi
		phis[v] = phi
		phiOrder = append(phiOrder, v)
	}

	var cond ir.Value
	var err error
	if st.Cond != nil {
		cond, err = c.genCond(st.Cond)
		if err != nil {
			return err
		}
	} else {
		cond = ir.ConstBool(true)
	}
	bodyB := c.newBlock("loop.body")
	latchB := c.newBlock("loop.latch")
	exitB := c.newBlock("loop.exit")
	condEnd := c.b.Cur // short-circuit conditions may have split blocks
	c.b.CondBr(cond, bodyB, exitB)
	headerEnv := c.snapshot()

	lc := &loopCtx{latchB: latchB, exitB: exitB}
	lc.exitEdges = append(lc.exitEdges, edge{from: condEnd, env: headerEnv})
	c.loops = append(c.loops, lc)

	c.b.SetBlock(bodyB)
	c.terminated = false
	if err := c.genBlock(st.Body); err != nil {
		return err
	}
	if !c.terminated {
		lc.latchEdges = append(lc.latchEdges, edge{from: c.b.Cur, env: c.snapshot()})
		c.b.Br(latchB)
	}
	c.loops = c.loops[:len(c.loops)-1]

	// Latch: merge continue edges, run the post statement, take the back edge.
	if len(lc.latchEdges) == 0 {
		// Body always breaks or returns; the latch is unreachable but the
		// header phis still need a well-typed back-edge value.
		c.restore(headerEnv)
		c.b.SetBlock(latchB)
		c.terminated = false
	} else {
		c.mergeInto(latchB, lc.latchEdges)
	}
	if st.Post != nil {
		if err := c.genStmt(st.Post); err != nil {
			return err
		}
	}
	latchEnd := c.b.Cur
	c.b.Br(headerB)
	for _, v := range phiOrder {
		ir.AddIncoming(phis[v], v.cur, latchEnd)
	}

	c.mergeInto(exitB, lc.exitEdges)
	return nil
}

// assignedIn returns the set of currently-visible variables assigned anywhere
// in the loop (cond, post, or body), respecting shadowing by inner
// declarations.
func (c *compiler) assignedIn(st *ForStmt) map[*variable]bool {
	out := map[*variable]bool{}
	shadow := map[string]int{}
	var walkStmt func(Stmt)
	noteAssign := func(name string) {
		if shadow[name] > 0 {
			return
		}
		if v := c.lookup(name); v != nil {
			out[v] = true
		}
	}
	var walkTarget func(Expr)
	walkTarget = func(e Expr) {
		if id, ok := e.(*Ident); ok {
			noteAssign(id.Name)
		}
	}
	walkStmt = func(s Stmt) {
		switch x := s.(type) {
		case nil:
		case *BlockStmt:
			declared := []string{}
			for _, inner := range x.Stmts {
				if d, ok := inner.(*DeclStmt); ok {
					shadow[d.Name]++
					declared = append(declared, d.Name)
				}
				walkStmt(inner)
			}
			for _, n := range declared {
				shadow[n]--
			}
		case *DeclStmt:
			// declaration itself creates a new variable; not an assignment
		case *AssignStmt:
			walkTarget(x.Target)
		case *IncDecStmt:
			walkTarget(x.Target)
		case *IfStmt:
			walkStmt(x.Then)
			walkStmt(x.Else)
		case *ForStmt:
			if d, ok := x.Init.(*DeclStmt); ok {
				shadow[d.Name]++
				walkStmt(x.Cond0())
				walkStmt(x.Post)
				walkStmt(x.Body)
				shadow[d.Name]--
			} else {
				walkStmt(x.Init)
				walkStmt(x.Post)
				walkStmt(x.Body)
			}
		case *WhileStmt:
			walkStmt(x.Body)
		}
	}
	walkStmt(st.Body)
	walkStmt(st.Post)
	return out
}

// Cond0 adapts the condition for assignedIn's statement walk (conditions are
// expressions and cannot assign, so it is always nil).
func (st *ForStmt) Cond0() Stmt { return nil }
