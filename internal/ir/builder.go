package ir

import "fmt"

// Builder constructs IR functions programmatically. It is the API the mini-C
// code generator and tests use; names are auto-generated when empty.
type Builder struct {
	Mod  *Module
	Fn   *Function
	Cur  *Block
	next int
}

// NewBuilder returns a builder appending to module m.
func NewBuilder(m *Module) *Builder { return &Builder{Mod: m} }

// NewFunc starts a new function with the given name and parameters and makes
// its entry block current.
func (b *Builder) NewFunc(name string, params ...*Param) *Function {
	f := &Function{Ident: name, Params: params, Parent: b.Mod}
	b.Mod.Funcs = append(b.Mod.Funcs, f)
	b.Fn = f
	b.Cur = nil
	b.next = 0
	b.Block("entry")
	return f
}

// NewParam creates a parameter for use with NewFunc.
func NewParam(name string, ty Type) *Param { return &Param{Ident: name, Ty: ty} }

// Block creates a new basic block in the current function and makes it
// current.
func (b *Builder) Block(name string) *Block {
	blk := &Block{Ident: name, Parent: b.Fn}
	b.Fn.Blocks = append(b.Fn.Blocks, blk)
	b.Cur = blk
	return blk
}

// SetBlock makes an existing block current.
func (b *Builder) SetBlock(blk *Block) { b.Cur = blk }

func (b *Builder) autoName() string {
	b.next++
	return fmt.Sprintf("t%d", b.next)
}

func (b *Builder) emit(in *Instr) *Instr {
	if in.HasResult() && in.Ident == "" {
		in.Ident = b.autoName()
	}
	return b.Cur.append(in)
}

// Bin emits a binary arithmetic/logic instruction. The result type is the
// type of the left operand.
func (b *Builder) Bin(op Opcode, lhs, rhs Value) *Instr {
	return b.emit(&Instr{Op: op, Ty: lhs.Type(), Args: []Value{lhs, rhs}})
}

// Add emits an integer add.
func (b *Builder) Add(lhs, rhs Value) *Instr { return b.Bin(OpAdd, lhs, rhs) }

// Sub emits an integer subtract.
func (b *Builder) Sub(lhs, rhs Value) *Instr { return b.Bin(OpSub, lhs, rhs) }

// Mul emits an integer multiply.
func (b *Builder) Mul(lhs, rhs Value) *Instr { return b.Bin(OpMul, lhs, rhs) }

// FAdd emits a floating add.
func (b *Builder) FAdd(lhs, rhs Value) *Instr { return b.Bin(OpFAdd, lhs, rhs) }

// FSub emits a floating subtract.
func (b *Builder) FSub(lhs, rhs Value) *Instr { return b.Bin(OpFSub, lhs, rhs) }

// ICmp emits an integer comparison with result type I1.
func (b *Builder) ICmp(pred CmpPred, lhs, rhs Value) *Instr {
	return b.emit(&Instr{Op: OpICmp, Ty: I1, Pred: pred, Args: []Value{lhs, rhs}})
}

// FCmp emits a float comparison with result type I1.
func (b *Builder) FCmp(pred CmpPred, lhs, rhs Value) *Instr {
	return b.emit(&Instr{Op: OpFCmp, Ty: I1, Pred: pred, Args: []Value{lhs, rhs}})
}

// Select emits a ternary select.
func (b *Builder) Select(cond, ifTrue, ifFalse Value) *Instr {
	return b.emit(&Instr{Op: OpSelect, Ty: ifTrue.Type(), Args: []Value{cond, ifTrue, ifFalse}})
}

// CastTo emits a type conversion.
func (b *Builder) CastTo(kind CastKind, to Type, v Value) *Instr {
	return b.emit(&Instr{Op: OpCast, Ty: to, Cast: kind, Args: []Value{v}})
}

// GEP emits an address computation: base + index*scale bytes.
func (b *Builder) GEP(base, index Value, scale int64) *Instr {
	return b.emit(&Instr{Op: OpGEP, Ty: Ptr, Args: []Value{base, index}, Scale: scale})
}

// Load emits a typed load from addr.
func (b *Builder) Load(ty Type, addr Value) *Instr {
	return b.emit(&Instr{Op: OpLoad, Ty: ty, Args: []Value{addr}})
}

// Store emits a store of value to addr.
func (b *Builder) Store(value, addr Value) *Instr {
	return b.emit(&Instr{Op: OpStore, Ty: Void, Args: []Value{value, addr}})
}

// AtomicAdd emits an atomic fetch-and-add; the result is the old value.
func (b *Builder) AtomicAdd(addr, delta Value) *Instr {
	return b.emit(&Instr{Op: OpAtomicAdd, Ty: delta.Type(), Args: []Value{addr, delta}})
}

// Phi emits an SSA phi node; wire incoming edges with AddIncoming.
func (b *Builder) Phi(ty Type) *Instr {
	return b.emit(&Instr{Op: OpPhi, Ty: ty})
}

// AddIncoming appends an incoming (value, predecessor) pair to a phi.
func AddIncoming(phi *Instr, v Value, from *Block) {
	phi.Args = append(phi.Args, v)
	phi.Incoming = append(phi.Incoming, from)
}

// Br emits an unconditional branch.
func (b *Builder) Br(target *Block) *Instr {
	return b.emit(&Instr{Op: OpBr, Ty: Void, Targets: []*Block{target}})
}

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Value, then, els *Block) *Instr {
	return b.emit(&Instr{Op: OpCondBr, Ty: Void, Args: []Value{cond}, Targets: []*Block{then, els}})
}

// Ret emits a return; v may be nil for a void return.
func (b *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet, Ty: Void}
	if v != nil {
		in.Args = []Value{v}
	}
	return b.emit(in)
}

// Call emits an intrinsic call. resTy may be Void.
func (b *Builder) Call(callee string, resTy Type, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpCall, Ty: resTy, Callee: callee, Args: args})
}

// Finish assigns IDs and verifies the function under construction, returning
// the verifier's error if any.
func (b *Builder) Finish() error {
	b.Fn.AssignIDs()
	return Verify(b.Fn)
}
