// Package ir implements the SSA intermediate representation that MosaicSim-Go
// simulates. It plays the role LLVM IR plays in the original MosaicSim: an
// ISA-agnostic instruction set with explicit basic-block structure from which
// static data-dependence graphs and dynamic traces are derived.
//
// The subset implemented here covers everything the simulator's execution
// model consumes: integer/float arithmetic, comparisons, casts, address
// computation (gep), memory operations, phi nodes, control flow, atomic
// read-modify-write, and intrinsic calls (tile queries, inter-tile send/recv,
// accelerator invocations, math builtins).
package ir

import "fmt"

// Type is the type of an IR value. All types are first-class scalars; arrays
// live in memory and are accessed through pointers, as in LLVM.
type Type uint8

// Scalar types supported by the IR.
const (
	Void Type = iota
	I1        // boolean / 1-bit integer
	I8
	I32
	I64
	F32
	F64
	Ptr // byte-addressed pointer, 8 bytes
)

// Size returns the size of the type in bytes as laid out in simulated memory.
func (t Type) Size() int64 {
	switch t {
	case I1, I8:
		return 1
	case I32, F32:
		return 4
	case I64, F64, Ptr:
		return 8
	default:
		return 0
	}
}

// IsInt reports whether t is an integer type (including I1).
func (t Type) IsInt() bool { return t == I1 || t == I8 || t == I32 || t == I64 }

// IsFloat reports whether t is a floating-point type.
func (t Type) IsFloat() bool { return t == F32 || t == F64 }

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case I1:
		return "i1"
	case I8:
		return "i8"
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	case Ptr:
		return "ptr"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Opcode identifies an IR instruction kind.
type Opcode uint8

// Instruction opcodes.
const (
	OpInvalid Opcode = iota

	// Integer arithmetic and bitwise logic.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons (result type I1).
	OpICmp
	OpFCmp

	// Ternary select: select cond, a, b.
	OpSelect

	// Type conversion; the kind is carried in Instr.Cast.
	OpCast

	// Address computation: gep base, index, scale -> base + index*scale.
	OpGEP

	// Memory operations.
	OpLoad
	OpStore

	// Atomic read-modify-write add; returns the old value.
	OpAtomicAdd

	// SSA phi node.
	OpPhi

	// Control flow (block terminators).
	OpBr
	OpCondBr
	OpRet

	// Intrinsic call (tile_id, send, recv, accelerator API, math builtins).
	OpCall

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpSelect: "select", OpCast: "cast", OpGEP: "gep",
	OpLoad: "load", OpStore: "store", OpAtomicAdd: "atomicadd",
	OpPhi: "phi", OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpCall: "call",
}

func (op Opcode) String() string {
	if op < numOpcodes {
		return opcodeNames[op]
	}
	return fmt.Sprintf("opcode(%d)", uint8(op))
}

// IsTerminator reports whether the opcode terminates a basic block. In
// MosaicSim's terminology these are the "terminator nodes" whose completion
// (or speculation past) launches the next dynamic basic block.
func (op Opcode) IsTerminator() bool { return op == OpBr || op == OpCondBr || op == OpRet }

// IsMemory reports whether the opcode accesses simulated memory and therefore
// gets a dynamic cost from the memory hierarchy.
func (op Opcode) IsMemory() bool { return op == OpLoad || op == OpStore || op == OpAtomicAdd }

// HasResult reports whether instructions with this opcode define an SSA value.
func (op Opcode) HasResult() bool {
	switch op {
	case OpStore, OpBr, OpCondBr, OpRet:
		return false
	case OpCall:
		// Calls may or may not produce a value; decided per-instruction.
		return true
	default:
		return true
	}
}

// CmpPred is a comparison predicate for icmp/fcmp. Integer comparisons use
// signed semantics; float comparisons use ordered semantics.
type CmpPred uint8

// Comparison predicates.
const (
	PredEQ CmpPred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

var predNames = [...]string{PredEQ: "eq", PredNE: "ne", PredLT: "lt", PredLE: "le", PredGT: "gt", PredGE: "ge"}

func (p CmpPred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", uint8(p))
}

// CastKind distinguishes the conversion performed by an OpCast instruction.
type CastKind uint8

// Cast kinds.
const (
	CastNone CastKind = iota
	CastTrunc
	CastZExt
	CastSExt
	CastSIToFP
	CastFPToSI
	CastFPExt
	CastFPTrunc
	CastBitcast
)

var castNames = [...]string{
	CastNone: "none", CastTrunc: "trunc", CastZExt: "zext", CastSExt: "sext",
	CastSIToFP: "sitofp", CastFPToSI: "fptosi", CastFPExt: "fpext",
	CastFPTrunc: "fptrunc", CastBitcast: "bitcast",
}

func (k CastKind) String() string {
	if int(k) < len(castNames) {
		return castNames[k]
	}
	return fmt.Sprintf("cast(%d)", uint8(k))
}
