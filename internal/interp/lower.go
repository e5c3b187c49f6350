package interp

import (
	"fmt"

	"mosaicsim/internal/ir"
)

// program is a kernel lowered for execution: newRunner decodes each distinct
// *ir.Function once into index-addressed records, so step never switches on
// an operand's kind, compares a callee name or searches a phi's incoming
// list. Phis are not in code: they run as the copy list of the edge taken.
type program struct {
	fn      *ir.Function
	code    []inst   // every non-phi instruction, in layout order
	edges   []edge   // edges[0] enters the kernel; the rest belong to branches
	consts  []uint64 // initial values of the register slots past fn.NumValues()
	args    []int32  // operand slots of accelerator calls
	errs    []error  // what each opErr instruction reports when it executes
	maxPhis int
	comm    bool // the kernel sends or receives
}

// inst is one lowered instruction. An operand is a register slot: a value ID,
// or past those a constant or placed global materialised once per tile.
type inst struct {
	op       ir.Opcode // the IR opcode, or one of the resolved opcodes below
	ty       ir.Type   // result type; the access type of a memory operation
	aty, bty ir.Type   // types of the first two operands
	dst      int32     // result slot (the sink slot when there is no result)
	a, b, c  int32     // operand slots, or per opcode: predicate, edges, argument range
	idx      int32     // static instruction index: trace events, profile, messages
}

// edge is one control-flow edge into a block.
type edge struct {
	pc       int32     // the target's first non-phi instruction
	phi0     int32     // static index of the target's first phi
	copies   []phiCopy // one per phi of the target
	parallel bool      // some copy reads a slot an earlier copy writes
}

type phiCopy struct{ dst, src int32 }

// Resolved opcodes: casts by kind and calls by intrinsic, numbered past the
// IR's own. opErr stands for anything that cannot execute; reaching it — not
// lowering it — is the error, so dead malformed code stays harmless.
const (
	opErr             = ir.OpInvalid
	opTrunc ir.Opcode = ir.OpCall + iota // in ir.CastKind order
	opZExt
	opSExt
	opSIToFP
	opFPToSI
	opFPExt
	opFPTrunc
	opBitcast
	opBarrier
	opRecv
	opSend
	opTileID
	opNumTiles
	opSqrt // unaryMath order
	opExp
	opLog
	opSin
	opCos
	opFabs
	opFloor
	opPow // binaryMath order
	opFMin
	opFMax
	opAcc // a, b: the call's range in program.args
)

// arity is how many leading operands step reads for each IR opcode.
var arity = map[ir.Opcode]int{
	ir.OpAdd: 2, ir.OpSub: 2, ir.OpMul: 2, ir.OpSDiv: 2, ir.OpSRem: 2, ir.OpAnd: 2, ir.OpOr: 2, ir.OpXor: 2,
	ir.OpShl: 2, ir.OpLShr: 2, ir.OpAShr: 2, ir.OpFAdd: 2, ir.OpFSub: 2, ir.OpFMul: 2, ir.OpFDiv: 2,
	ir.OpICmp: 2, ir.OpFCmp: 2, ir.OpSelect: 3, ir.OpGEP: 2, ir.OpLoad: 1, ir.OpStore: 2, ir.OpAtomicAdd: 2,
	ir.OpBr: 0, ir.OpCondBr: 1, ir.OpRet: 0,
}

// resolve picks the opcode step dispatches on for src and how many leading
// operands it reads as register slots.
func resolve(src *ir.Instr) (ir.Opcode, int, error) {
	switch src.Op {
	case ir.OpCast:
		if src.Cast < ir.CastTrunc || src.Cast > ir.CastBitcast {
			return opErr, 0, fmt.Errorf("interp: bad cast kind in %%%s", src.Ident)
		}
		return opTrunc + ir.Opcode(src.Cast-ir.CastTrunc), 1, nil
	case ir.OpCall:
		if it, ok := intrinsics[src.Callee]; ok {
			return it.op, it.nargs, nil
		}
		if IsAccCall(src.Callee) {
			return opAcc, 0, nil
		}
		return opErr, 0, fmt.Errorf("interp: unknown intrinsic %q", src.Callee)
	}
	if n, ok := arity[src.Op]; ok {
		return src.Op, n, nil
	}
	return opErr, 0, fmt.Errorf("interp: unhandled opcode %s", src.Op)
}

func lower(f *ir.Function, globals map[*ir.Global]uint64) *program {
	f.AssignIDs()
	p := &program{fn: f}
	constSlot := map[uint64]int32{}
	konst := func(bits uint64) int32 {
		s, ok := constSlot[bits]
		if !ok {
			s = int32(f.NumValues() + len(p.consts))
			constSlot[bits] = s
			p.consts = append(p.consts, bits)
		}
		return s
	}
	slot := func(v ir.Value) int32 {
		switch x := v.(type) {
		case *ir.Const:
			return konst(x.Bits)
		case *ir.Param:
			return int32(x.ID)
		case *ir.Instr:
			return int32(x.ID)
		case *ir.Global:
			return konst(globals[x])
		}
		panic(fmt.Sprintf("interp: unknown operand kind %T", v))
	}
	// fail makes in an opErr that reports err if it is ever executed.
	fail := func(in *inst, err error) {
		in.op, in.a = opErr, int32(len(p.errs))
		p.errs = append(p.errs, err)
	}

	// Where each block's code starts, and how many phis lead it.
	start := make([]int32, len(f.Blocks))
	nphi := make([]int, len(f.Blocks))
	n := int32(0)
	for _, b := range f.Blocks {
		for nphi[b.ID] < len(b.Instrs) && b.Instrs[nphi[b.ID]].Op == ir.OpPhi {
			nphi[b.ID]++
		}
		start[b.ID] = n
		n += int32(len(b.Instrs) - nphi[b.ID])
		p.maxPhis = max(p.maxPhis, nphi[b.ID])
	}
	p.code = make([]inst, n)
	// edgeTo lowers the edge from block from (nil: kernel entry) into block
	// to. A phi with no value for the edge makes the edge lead to an opErr
	// appended after the kernel's code instead.
	edgeTo := func(from, to *ir.Block) int32 {
		e := edge{pc: start[to.ID]}
		for i, phi := range to.Instrs[:nphi[to.ID]] {
			if i == 0 {
				e.phi0 = int32(phi.Idx)
			}
			src := int32(-1)
			for j, inc := range phi.Incoming {
				if inc == from && from != nil {
					src = slot(phi.Args[j])
					break
				}
			}
			if src < 0 {
				e.pc, e.copies = int32(len(p.code)), nil
				p.code = append(p.code, inst{})
				fail(&p.code[e.pc], fmt.Errorf("interp: phi %%%s has no incoming edge from %s", phi.Ident, blockIdent(from)))
				break
			}
			for _, c := range e.copies {
				e.parallel = e.parallel || c.dst == src
			}
			e.copies = append(e.copies, phiCopy{dst: int32(phi.ID), src: src})
		}
		p.edges = append(p.edges, e)
		return int32(len(p.edges) - 1)
	}
	edgeTo(nil, f.Entry())

	for _, b := range f.Blocks {
		for i, src := range b.Instrs[nphi[b.ID]:] {
			// Built by value: edgeTo may grow p.code.
			in := inst{ty: src.Ty, dst: int32(src.ID), idx: int32(src.Idx)}
			op, need, err := resolve(src)
			if err == nil && len(src.Args) < need {
				err = fmt.Errorf("interp: %s in %%%s has %d operands, needs %d", src.Op, src.Ident, len(src.Args), need)
			}
			if err != nil {
				fail(&in, err)
				p.code[int(start[b.ID])+i] = in
				continue
			}
			in.op = op
			for j, s := range []*int32{&in.a, &in.b, &in.c}[:need] {
				*s = slot(src.Args[j])
			}
			if need > 0 {
				in.aty = src.Args[0].Type()
			}
			if need > 1 {
				in.bty = src.Args[1].Type()
			}
			switch op {
			case ir.OpICmp, ir.OpFCmp:
				in.c = int32(src.Pred)
			case ir.OpGEP:
				in.c = konst(uint64(src.Scale))
			case ir.OpStore:
				in.ty = in.aty
			case ir.OpBr:
				in.b = edgeTo(b, src.Targets[0])
			case ir.OpCondBr:
				in.b, in.c = edgeTo(b, src.Targets[0]), edgeTo(b, src.Targets[1])
			case opSend, opRecv:
				p.comm = true
			case opAcc:
				in.a, in.b = int32(len(p.args)), int32(len(src.Args))
				for _, a := range src.Args {
					p.args = append(p.args, slot(a))
				}
			}
			p.code[int(start[b.ID])+i] = in
		}
	}
	// The sink slot follows the constants: results with no value ID land there.
	for i := range p.code {
		if p.code[i].dst < 0 {
			p.code[i].dst = int32(f.NumValues() + len(p.consts))
		}
	}
	return p
}

func blockIdent(b *ir.Block) string {
	if b == nil {
		return "<entry>"
	}
	return b.Ident
}
