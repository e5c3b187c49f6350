package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a module in the textual IR format produced by Module.String.
// The format is line-oriented; ';' and '//' begin comments. On success the
// module is verified and every function has IDs assigned. Only this
// package's tests read IR text: everything else builds modules from mini-C
// (internal/cc) or with Builder.
func Parse(src string) (*Module, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	if err := VerifyModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	lines []string
	pos   int
}

type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string { return fmt.Sprintf("ir parse line %d: %s", e.line, e.msg) }

func (p *parser) errf(format string, args ...any) error {
	return &parseError{line: p.pos, msg: fmt.Sprintf(format, args...)}
}

// next returns the next non-empty, non-comment line, trimmed, or "" at EOF.
func (p *parser) next() string {
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		p.pos++
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			return line
		}
	}
	return ""
}

func (p *parser) parseModule() (*Module, error) {
	m := NewModule("module")
	for {
		line := p.next()
		if line == "" {
			break
		}
		switch {
		case strings.HasPrefix(line, "module "):
			m.Ident = strings.TrimSpace(strings.TrimPrefix(line, "module "))
		case strings.HasPrefix(line, "global "):
			if err := p.parseGlobal(m, line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "func "):
			if err := p.parseFunc(m, line); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected module/global/func, got %q", line)
		}
	}
	return m, nil
}

func (p *parser) parseGlobal(m *Module, line string) error {
	// global @name type count
	fields := strings.Fields(line)
	if len(fields) != 4 || !strings.HasPrefix(fields[1], "@") {
		return p.errf("malformed global: %q", line)
	}
	ty, ok := TypeFromName(fields[2])
	if !ok {
		return p.errf("unknown type %q", fields[2])
	}
	n, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return p.errf("bad global count %q", fields[3])
	}
	m.AddGlobal(strings.TrimPrefix(fields[1], "@"), ty, n)
	return nil
}

// pendingInstr is an instruction parsed but with operand/target names not yet
// resolved (SSA allows uses before definitions across blocks).
type pendingInstr struct {
	in      *Instr
	line    int
	args    []string               // raw operand tokens
	argTys  []Type                 // explicit constant types (Void = infer)
	blocks  []string               // raw block-reference names (phi incoming / br targets)
	asPhi   bool                   // args/blocks are parallel phi pairs
	asBr    bool                   // blocks are branch targets
	inferTy func(resolved []Value) // post-resolution fixup (e.g. binop result type)
}

func (p *parser) parseFunc(m *Module, header string) error {
	// func @name(%a: ty, %b: ty) {
	rest := strings.TrimSpace(strings.TrimPrefix(header, "func "))
	open := strings.Index(rest, "(")
	close_ := strings.LastIndex(rest, ")")
	if !strings.HasPrefix(rest, "@") || open < 0 || close_ < open || !strings.HasSuffix(rest, "{") {
		return p.errf("malformed func header: %q", header)
	}
	name := rest[1:open]
	f := &Function{Ident: name, Parent: m}
	paramSrc := strings.TrimSpace(rest[open+1 : close_])
	if paramSrc != "" {
		for _, ps := range strings.Split(paramSrc, ",") {
			parts := strings.SplitN(strings.TrimSpace(ps), ":", 2)
			if len(parts) != 2 || !strings.HasPrefix(parts[0], "%") {
				return p.errf("malformed parameter %q", ps)
			}
			ty, ok := TypeFromName(strings.TrimSpace(parts[1]))
			if !ok {
				return p.errf("unknown parameter type in %q", ps)
			}
			f.Params = append(f.Params, &Param{Ident: strings.TrimPrefix(strings.TrimSpace(parts[0]), "%"), Ty: ty})
		}
	}
	m.Funcs = append(m.Funcs, f)

	values := map[string]Value{}
	for _, prm := range f.Params {
		values[prm.Ident] = prm
	}
	blocks := map[string]*Block{}
	getBlock := func(name string) *Block {
		if b, ok := blocks[name]; ok {
			return b
		}
		b := &Block{Ident: name, Parent: f}
		blocks[name] = b
		return b
	}

	var cur *Block
	var pend []*pendingInstr
	for {
		line := p.next()
		if line == "" {
			return p.errf("unexpected EOF in function @%s", name)
		}
		if line == "}" {
			break
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			b := getBlock(strings.TrimSuffix(line, ":"))
			if len(b.Instrs) > 0 {
				return p.errf("duplicate block label %q", b.Ident)
			}
			f.Blocks = append(f.Blocks, b)
			cur = b
			continue
		}
		if cur == nil {
			return p.errf("instruction before first block label: %q", line)
		}
		pi, err := p.parseInstrLine(line)
		if err != nil {
			return err
		}
		cur.append(pi.in)
		if pi.in.Ident != "" {
			if _, dup := values[pi.in.Ident]; dup {
				return p.errf("redefinition of %%%s", pi.in.Ident)
			}
			values[pi.in.Ident] = pi.in
		}
		pend = append(pend, pi)
	}

	// Resolve operands and block references.
	for _, pi := range pend {
		for _, bn := range pi.blocks {
			b, ok := blocks[bn]
			if !ok || b.Parent != f {
				return &parseError{line: pi.line, msg: fmt.Sprintf("unknown block %%%s", bn)}
			}
			if pi.asPhi {
				pi.in.Incoming = append(pi.in.Incoming, b)
			} else {
				pi.in.Targets = append(pi.in.Targets, b)
			}
		}
		resolved := make([]Value, len(pi.args))
		for i, tok := range pi.args {
			v, err := resolveOperand(m, values, tok, pi.argTys[i])
			if err != nil {
				return &parseError{line: pi.line, msg: err.Error()}
			}
			resolved[i] = v
		}
		pi.in.Args = resolved
		if pi.inferTy != nil {
			pi.inferTy(resolved)
		}
	}

	// Ensure blocks referenced but never defined are caught.
	for name, b := range blocks {
		found := false
		for _, fb := range f.Blocks {
			if fb == b {
				found = true
				break
			}
		}
		if !found {
			return p.errf("block %%%s referenced but never defined", name)
		}
	}
	return nil
}

func resolveOperand(m *Module, values map[string]Value, tok string, explicit Type) (Value, error) {
	switch {
	case strings.HasPrefix(tok, "%"):
		v, ok := values[tok[1:]]
		if !ok {
			return nil, fmt.Errorf("unknown value %s", tok)
		}
		return v, nil
	case strings.HasPrefix(tok, "@"):
		g := m.Global(tok[1:])
		if g == nil {
			return nil, fmt.Errorf("unknown global %s", tok)
		}
		return g, nil
	case tok == "true":
		return ConstBool(true), nil
	case tok == "false":
		return ConstBool(false), nil
	default:
		ty := explicit
		if strings.ContainsAny(tok, ".eE") && !strings.HasPrefix(tok, "0x") {
			if ty == Void {
				ty = F64
			}
			fv, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("bad float literal %q", tok)
			}
			return ConstFloat(ty, fv), nil
		}
		iv, err := strconv.ParseInt(tok, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad literal %q", tok)
		}
		if ty == Void {
			ty = I64
		}
		if ty.IsFloat() {
			return ConstFloat(ty, float64(iv)), nil
		}
		return ConstInt(ty, iv), nil
	}
}

// splitOperands splits "a, b, c" at top level (no nesting in this format
// outside phi brackets, which are handled separately).
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// operandTok splits an optional explicit type prefix from a constant token:
// "i32 5" -> (I32, "5"); "%x" -> (Void, "%x").
func operandTok(tok string) (Type, string) {
	fields := strings.Fields(tok)
	if len(fields) == 2 {
		if ty, ok := TypeFromName(fields[0]); ok {
			return ty, fields[1]
		}
	}
	return Void, tok
}

func (p *parser) parseInstrLine(line string) (*pendingInstr, error) {
	pi := &pendingInstr{in: &Instr{}, line: p.pos}
	rest := line
	if i := strings.Index(line, "="); i > 0 && strings.HasPrefix(strings.TrimSpace(line), "%") {
		lhs := strings.TrimSpace(line[:i])
		pi.in.Ident = strings.TrimPrefix(lhs, "%")
		rest = strings.TrimSpace(line[i+1:])
	}
	fields := strings.SplitN(rest, " ", 2)
	mnemonic := fields[0]
	body := ""
	if len(fields) == 2 {
		body = strings.TrimSpace(fields[1])
	}
	op, ok := OpcodeFromName(mnemonic)
	if !ok {
		return nil, p.errf("unknown opcode %q", mnemonic)
	}
	pi.in.Op = op

	addArg := func(tok string) {
		ty, t := operandTok(tok)
		pi.args = append(pi.args, t)
		pi.argTys = append(pi.argTys, ty)
	}

	switch op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv:
		ops := splitOperands(body)
		if len(ops) != 2 {
			return nil, p.errf("%s needs 2 operands: %q", mnemonic, line)
		}
		addArg(ops[0])
		addArg(ops[1])
		// Provisional result type so the instruction registers as a value
		// definition during parsing; fixed up after operand resolution.
		pi.in.Ty = I64
		in := pi.in
		pi.inferTy = func(resolved []Value) {
			// Result type comes from the first operand with a known non-const
			// type; constant-only operands default inside resolveOperand.
			in.Ty = resolved[0].Type()
			// Propagate a named operand's type onto bare constants.
			inferConstTypes(in, resolved)
		}
	case OpICmp, OpFCmp:
		sp := strings.SplitN(body, " ", 2)
		if len(sp) != 2 {
			return nil, p.errf("%s needs a predicate: %q", mnemonic, line)
		}
		pred, ok := PredFromName(sp[0])
		if !ok {
			return nil, p.errf("unknown predicate %q", sp[0])
		}
		pi.in.Pred = pred
		pi.in.Ty = I1
		ops := splitOperands(sp[1])
		if len(ops) != 2 {
			return nil, p.errf("%s needs 2 operands: %q", mnemonic, line)
		}
		addArg(ops[0])
		addArg(ops[1])
		in := pi.in
		pi.inferTy = func(resolved []Value) { inferConstTypes(in, resolved) }
	case OpSelect:
		ops := splitOperands(body)
		if len(ops) != 3 {
			return nil, p.errf("select needs 3 operands: %q", line)
		}
		for _, o := range ops {
			addArg(o)
		}
		pi.in.Ty = I64
		in := pi.in
		pi.inferTy = func(resolved []Value) { in.Ty = resolved[1].Type() }
	case OpCast:
		sp := strings.Fields(body)
		if len(sp) < 3 {
			return nil, p.errf("cast needs kind, type, operand: %q", line)
		}
		kind, ok := CastFromName(sp[0])
		if !ok {
			return nil, p.errf("unknown cast kind %q", sp[0])
		}
		ty, ok := TypeFromName(strings.TrimSuffix(sp[1], ","))
		if !ok {
			return nil, p.errf("unknown cast type %q", sp[1])
		}
		pi.in.Cast = kind
		pi.in.Ty = ty
		addArg(strings.TrimSpace(strings.Join(sp[2:], " ")))
	case OpGEP:
		ops := splitOperands(body)
		if len(ops) != 3 {
			return nil, p.errf("gep needs base, index, scale: %q", line)
		}
		scale, err := strconv.ParseInt(ops[2], 10, 64)
		if err != nil {
			return nil, p.errf("bad gep scale %q", ops[2])
		}
		pi.in.Scale = scale
		pi.in.Ty = Ptr
		addArg(ops[0])
		addArg(ops[1])
	case OpLoad:
		ops := splitOperands(body)
		if len(ops) != 2 {
			return nil, p.errf("load needs type, addr: %q", line)
		}
		ty, ok := TypeFromName(ops[0])
		if !ok {
			return nil, p.errf("unknown load type %q", ops[0])
		}
		pi.in.Ty = ty
		addArg(ops[1])
	case OpStore:
		ops := splitOperands(body)
		if len(ops) != 2 {
			return nil, p.errf("store needs value, addr: %q", line)
		}
		pi.in.Ty = Void
		addArg(ops[0])
		addArg(ops[1])
	case OpAtomicAdd:
		ops := splitOperands(body)
		if len(ops) != 2 {
			return nil, p.errf("atomicadd needs addr, delta: %q", line)
		}
		addArg(ops[0])
		addArg(ops[1])
		pi.in.Ty = I64
		in := pi.in
		pi.inferTy = func(resolved []Value) { in.Ty = resolved[1].Type() }
	case OpPhi:
		sp := strings.SplitN(body, " ", 2)
		if len(sp) != 2 {
			return nil, p.errf("phi needs a type: %q", line)
		}
		ty, ok := TypeFromName(sp[0])
		if !ok {
			return nil, p.errf("unknown phi type %q", sp[0])
		}
		pi.in.Ty = ty
		pi.asPhi = true
		rest := sp[1]
		for {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				break
			}
			if rest[0] == ',' {
				rest = rest[1:]
				continue
			}
			if rest[0] != '[' {
				return nil, p.errf("phi expects [value, %%block] pairs: %q", line)
			}
			end := strings.Index(rest, "]")
			if end < 0 {
				return nil, p.errf("unterminated phi pair: %q", line)
			}
			pair := splitOperands(rest[1:end])
			if len(pair) != 2 || !strings.HasPrefix(pair[1], "%") {
				return nil, p.errf("malformed phi pair %q", rest[1:end])
			}
			ty2, tok := operandTok(pair[0])
			if ty2 == Void {
				ty2 = ty
			}
			pi.args = append(pi.args, tok)
			pi.argTys = append(pi.argTys, ty2)
			pi.blocks = append(pi.blocks, strings.TrimPrefix(pair[1], "%"))
			rest = rest[end+1:]
		}
	case OpBr:
		pi.asBr = true
		pi.in.Ty = Void
		t := strings.TrimSpace(body)
		if !strings.HasPrefix(t, "%") {
			return nil, p.errf("br target must be a block: %q", line)
		}
		pi.blocks = append(pi.blocks, strings.TrimPrefix(t, "%"))
	case OpCondBr:
		pi.asBr = true
		pi.in.Ty = Void
		ops := splitOperands(body)
		if len(ops) != 3 || !strings.HasPrefix(ops[1], "%") || !strings.HasPrefix(ops[2], "%") {
			return nil, p.errf("condbr needs cond, %%then, %%else: %q", line)
		}
		addArg(ops[0])
		pi.blocks = append(pi.blocks, strings.TrimPrefix(ops[1], "%"), strings.TrimPrefix(ops[2], "%"))
	case OpRet:
		pi.in.Ty = Void
		if body != "" {
			addArg(body)
		}
	case OpCall:
		// call <type> <callee>(args...)
		sp := strings.SplitN(body, " ", 2)
		if len(sp) != 2 {
			return nil, p.errf("call needs type and callee: %q", line)
		}
		ty, ok := TypeFromName(sp[0])
		if !ok {
			return nil, p.errf("unknown call result type %q", sp[0])
		}
		pi.in.Ty = ty
		rest := strings.TrimSpace(sp[1])
		open := strings.Index(rest, "(")
		if open < 0 || !strings.HasSuffix(rest, ")") {
			return nil, p.errf("malformed call: %q", line)
		}
		pi.in.Callee = strings.TrimSpace(rest[:open])
		for _, o := range splitOperands(rest[open+1 : len(rest)-1]) {
			addArg(o)
		}
	default:
		return nil, p.errf("unhandled opcode %q", mnemonic)
	}
	return pi, nil
}

// inferConstTypes retypes bare integer constants to match a named operand's
// type in binary operations (e.g. `add %i32val, 1` makes the 1 an i32).
func inferConstTypes(in *Instr, resolved []Value) {
	var ty Type
	for _, v := range resolved {
		if _, isConst := v.(*Const); !isConst {
			ty = v.Type()
			break
		}
	}
	if ty == Void {
		return
	}
	for i, v := range resolved {
		if c, isConst := v.(*Const); isConst && c.Ty != ty {
			if ty.IsFloat() && c.Ty == I64 {
				resolved[i] = ConstFloat(ty, float64(c.Int()))
			} else if ty.IsInt() && c.Ty == I64 {
				resolved[i] = ConstInt(ty, c.Int())
			} else if ty == Ptr && c.Ty == I64 {
				resolved[i] = &Const{Ty: Ptr, Bits: c.Bits}
			}
		}
	}
	if in.Ty != I1 && in.Op != OpICmp && in.Op != OpFCmp {
		in.Ty = ty
	}
}

// TypeFromName parses a type name as used in the textual IR format.
func TypeFromName(s string) (Type, bool) {
	switch s {
	case "void":
		return Void, true
	case "i1":
		return I1, true
	case "i8":
		return I8, true
	case "i32":
		return I32, true
	case "i64":
		return I64, true
	case "f32":
		return F32, true
	case "f64":
		return F64, true
	case "ptr":
		return Ptr, true
	}
	return Void, false
}

// OpcodeFromName parses an opcode mnemonic used by the textual IR format.
func OpcodeFromName(s string) (Opcode, bool) {
	for op := Opcode(1); op < numOpcodes; op++ {
		if opcodeNames[op] == s {
			return op, true
		}
	}
	return OpInvalid, false
}

// PredFromName parses a predicate mnemonic.
func PredFromName(s string) (CmpPred, bool) {
	for i, n := range predNames {
		if n == s {
			return CmpPred(i), true
		}
	}
	return PredEQ, false
}

// CastFromName parses a cast-kind mnemonic.
func CastFromName(s string) (CastKind, bool) {
	for i, n := range castNames {
		if n == s {
			return CastKind(i), true
		}
	}
	return CastNone, false
}
