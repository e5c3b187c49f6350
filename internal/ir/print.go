package ir

import (
	"fmt"
	"strings"
)

// String renders the module in the textual IR format (which ir's tests read
// back to build fixtures).
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Ident)
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global @%s %s %d\n", g.Ident, g.Elem, g.Count)
	}
	for _, f := range m.Funcs {
		sb.WriteString("\n")
		sb.WriteString(f.String())
	}
	return sb.String()
}

// String renders the function in the textual IR format.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func @%s(", f.Ident)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%%%s: %s", p.Ident, p.Ty)
	}
	sb.WriteString(") {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Ident)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", formatInstr(in))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func operandStr(v Value) string {
	switch x := v.(type) {
	case *Const:
		if x.Ty == I64 || (x.Ty == F64 && strings.ContainsAny(x.Name(), ".e")) {
			return x.Name()
		}
		// Non-default constant types are printed with an explicit type so the
		// round trip through the parser preserves them.
		return x.Ty.String() + " " + x.Name()
	case *Global:
		return "@" + x.Ident
	default:
		return "%" + v.Name()
	}
}

func formatInstr(in *Instr) string {
	var sb strings.Builder
	if in.HasResult() {
		fmt.Fprintf(&sb, "%%%s = ", in.Ident)
	}
	switch in.Op {
	case OpICmp, OpFCmp:
		fmt.Fprintf(&sb, "%s %s %s, %s", in.Op, in.Pred, operandStr(in.Args[0]), operandStr(in.Args[1]))
	case OpCast:
		fmt.Fprintf(&sb, "cast %s %s, %s", in.Cast, in.Ty, operandStr(in.Args[0]))
	case OpGEP:
		fmt.Fprintf(&sb, "gep %s, %s, %d", operandStr(in.Args[0]), operandStr(in.Args[1]), in.Scale)
	case OpLoad:
		fmt.Fprintf(&sb, "load %s, %s", in.Ty, operandStr(in.Args[0]))
	case OpPhi:
		fmt.Fprintf(&sb, "phi %s ", in.Ty)
		for i := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "[%s, %%%s]", operandStr(in.Args[i]), in.Incoming[i].Ident)
		}
	case OpBr:
		fmt.Fprintf(&sb, "br %%%s", in.Targets[0].Ident)
	case OpCondBr:
		fmt.Fprintf(&sb, "condbr %s, %%%s, %%%s", operandStr(in.Args[0]), in.Targets[0].Ident, in.Targets[1].Ident)
	case OpRet:
		sb.WriteString("ret")
		if len(in.Args) == 1 {
			sb.WriteString(" " + operandStr(in.Args[0]))
		}
	case OpCall:
		fmt.Fprintf(&sb, "call %s %s(", in.Ty, in.Callee)
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(operandStr(a))
		}
		sb.WriteString(")")
	default:
		sb.WriteString(in.Op.String())
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(" " + operandStr(a))
		}
	}
	return sb.String()
}
