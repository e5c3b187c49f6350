package interp

import (
	"errors"
	"fmt"
	"math"

	"mosaicsim/internal/ir"
	"mosaicsim/internal/trace"
)

// AccFunc is a functional accelerator implementation: it performs the
// accelerated operation on the memory image so downstream computation and
// result verification see correct data, while the timing cost comes from the
// accelerator performance model during simulation.
type AccFunc func(mem *Memory, params []int64)

// Options configures a DTG run.
type Options struct {
	// NumTiles is the SPMD tile count T (default 1).
	NumTiles int
	// Acc maps accelerator intrinsic names (e.g. "acc_sgemm") to functional
	// implementations. Unknown accelerator calls are an error.
	Acc map[string]AccFunc
	// MaxSteps aborts runaway kernels after this many dynamic instructions
	// across all tiles (0 = 2^40).
	MaxSteps int64
	// Timeslice is the number of instructions a tile executes before the
	// round-robin moves on (default 4096). It bounds inter-tile skew in
	// functional execution; timing skew is resolved by the simulator.
	Timeslice int
	// Profile collects per-static-instruction execution counts (a hot-spot
	// profile of the kernel as it runs natively).
	Profile bool
}

// Result is the outcome of a DTG run.
type Result struct {
	Trace *trace.Trace
	// Counts holds per-tile, per-static-instruction execution counts
	// (indexed by ir.Instr.Idx) when Options.Profile is set.
	Counts [][]int64
}

// Arg helpers build the raw parameter words passed to Run.

// ArgPtr encodes a pointer kernel argument.
func ArgPtr(addr uint64) uint64 { return addr }

// ArgI64 encodes an integer kernel argument.
func ArgI64(v int64) uint64 { return uint64(v) }

// ArgF64 encodes a float64 kernel argument.
func ArgF64(v float64) uint64 { return math.Float64bits(v) }

// ArgF32 encodes a float32 kernel argument.
func ArgF32(v float32) uint64 { return uint64(math.Float32bits(v)) }

// Run natively executes kernel f with the given arguments on every tile and
// returns the per-tile traces. Globals referenced by the function's module
// must have been placed with PlaceGlobals (or the module must have none).
func Run(f *ir.Function, mem *Memory, args []uint64, opts Options) (*Result, error) {
	if opts.NumTiles <= 0 {
		opts.NumTiles = 1
	}
	fns := make([]*ir.Function, opts.NumTiles)
	for i := range fns {
		fns[i] = f
	}
	return RunTiles(fns, mem, args, opts)
}

// RunTiles executes a possibly different kernel function per tile (all with
// the same arguments) — the heterogeneous form used by Decoupled
// Access/Execute systems, where even tiles run the access slice and odd
// tiles the execute slice (§VII-A). opts.NumTiles is taken from len(fns).
func RunTiles(fns []*ir.Function, mem *Memory, args []uint64, opts Options) (*Result, error) {
	opts.NumTiles = len(fns)
	r, err := newRunner(fns, mem, args, opts)
	if err != nil {
		return nil, err
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	tr := &trace.Trace{Kernel: fns[0].Ident}
	res := &Result{Trace: tr}
	for _, t := range r.tiles {
		tr.Tiles = append(tr.Tiles, &trace.TileTrace{
			Tile: int32(t.id), DynInstrs: t.dyn,
			BBPath: t.path, Mem: t.mem, Comm: t.comm, Acc: t.acc,
		})
		if opts.Profile {
			res.Counts = append(res.Counts, t.prof)
		}
	}
	return res, nil
}

// PlaceGlobals allocates every global of m in mem and returns the address
// map. Call once per memory image before Run.
func PlaceGlobals(m *ir.Module, mem *Memory) map[*ir.Global]uint64 {
	out := make(map[*ir.Global]uint64, len(m.Globals))
	for _, g := range m.Globals {
		out[g] = mem.AllocGlobal(g)
	}
	return out
}

// runner is the cooperative multi-tile execution engine.
type runner struct {
	mem     *Memory
	opts    Options
	tiles   []*tileCtx
	queues  []ring // message words in flight, [src*NumTiles+dst]; nil unless a kernel communicates
	steps   int64
	maxStep int64
}

// tileCtx is one tile's execution state: its lowered kernel, registers
// (values, then the program's constants, then a sink for unused results) and
// the trace streams it records.
type tileCtx struct {
	id   int
	p    *program
	r    *runner
	regs []uint64
	tmp  []uint64 // parallel-copy scratch, sized to the widest phi group
	pc   int
	done bool
	// atBarrier marks that the tile has registered its arrival at the
	// current barrier and is waiting for the others.
	atBarrier bool
	barriers  int64        // barriers passed or arrived at
	path      trace.Path   // condbr outcomes
	mem       trace.Stream // load, store and atomic addresses
	lastAddr  []uint64     // per static instruction, the address it recorded last
	comm      trace.Stream // send and recv partners
	acc       []trace.AccCall
	dyn       int64   // dynamic instruction count
	prof      []int64 // per-static-instruction execution counts (optional)
}

func newRunner(fns []*ir.Function, mem *Memory, args []uint64, opts Options) (*runner, error) {
	if opts.Timeslice <= 0 {
		opts.Timeslice = 4096
	}
	r := &runner{mem: mem, opts: opts, maxStep: opts.MaxSteps}
	if r.maxStep == 0 {
		r.maxStep = 1 << 40
	}
	globals := map[*ir.Global]uint64{}
	placed := map[*ir.Module]bool{}
	progs := map[*ir.Function]*program{}
	for i, f := range fns {
		if len(args) != len(f.Params) {
			return nil, fmt.Errorf("interp: kernel @%s takes %d args, got %d", f.Ident, len(f.Params), len(args))
		}
		if f.Parent != nil && !placed[f.Parent] {
			placed[f.Parent] = true
			for g, addr := range PlaceGlobals(f.Parent, mem) {
				globals[g] = addr
			}
		}
		p := progs[f]
		if p == nil {
			p = lower(f, globals)
			progs[f] = p
			if p.comm && r.queues == nil {
				r.queues = make([]ring, len(fns)*len(fns))
			}
		}
		t := &tileCtx{id: i, p: p, r: r, regs: make([]uint64, f.NumValues()+len(p.consts)+1), tmp: make([]uint64, p.maxPhis), lastAddr: make([]uint64, f.NumInstrs())}
		copy(t.regs, args)
		copy(t.regs[f.NumValues():], p.consts)
		if opts.Profile {
			t.prof = make([]int64, f.NumInstrs())
		}
		t.pc = t.enter(&p.edges[0])
		r.tiles = append(r.tiles, t)
	}
	return r, nil
}

// errDeadlock is returned when every live tile is blocked on recv.
var errDeadlock = errors.New("interp: deadlock — all live tiles blocked on recv")

func (r *runner) run() error {
	for {
		progress := false
		alive := false
		for _, t := range r.tiles {
			if t.done {
				continue
			}
			alive = true
			n, err := t.step(r.opts.Timeslice)
			if err != nil {
				return err
			}
			if n > 0 {
				progress = true
			}
		}
		if !alive {
			return nil
		}
		if !progress {
			return errDeadlock
		}
		if r.steps > r.maxStep {
			return fmt.Errorf("interp: kernel @%s exceeded %d dynamic instructions", r.tiles[0].p.fn.Ident, r.maxStep)
		}
	}
}

// ring is a growable power-of-two FIFO of message words.
type ring struct {
	buf     []uint64
	head, n int
}

func (q *ring) push(v uint64) {
	if q.n == len(q.buf) {
		buf := make([]uint64, max(16, 2*q.n))
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)&(q.n-1)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *ring) pop() uint64 {
	v := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// enter takes control-flow edge e: it counts the target block on the path,
// performs the target's phis as one parallel copy, and returns the pc of its
// first non-phi instruction. Phis count as dynamic instructions (and in the
// profile) but not against the caller's timeslice.
func (t *tileCtx) enter(e *edge) int {
	t.path.Enter()
	if n := len(e.copies); n > 0 {
		regs := t.regs
		if e.parallel {
			// Some copy reads a slot an earlier one writes: read all first.
			for i, c := range e.copies {
				t.tmp[i] = regs[c.src]
			}
			for i, c := range e.copies {
				regs[c.dst] = t.tmp[i]
			}
		} else {
			for _, c := range e.copies {
				regs[c.dst] = regs[c.src]
			}
		}
		t.dyn += int64(n)
		t.r.steps += int64(n)
		if t.prof != nil {
			for i := range e.copies {
				t.prof[int(e.phi0)+i]++
			}
		}
	}
	return int(e.pc)
}

// Width tables indexed by ir.Type: integer results wrap to their type's
// width, and narrow integers sign-extend when read (i1 reads as 0 or 1).
var (
	widthMask = [8]uint64{ir.I1: 1, ir.I8: 0xff, ir.I32: 0xffffffff, ir.Void: ^uint64(0), ir.I64: ^uint64(0), ir.F32: ^uint64(0), ir.F64: ^uint64(0), ir.Ptr: ^uint64(0)}
	signShift = [8]uint8{ir.I8: 56, ir.I32: 32}
)

func signExt(bits uint64, ty ir.Type) int64 {
	return int64((bits&widthMask[ty&7])<<signShift[ty&7]) >> signShift[ty&7]
}

func truncTo(v uint64, ty ir.Type) uint64 { return v & widthMask[ty&7] }

func toFloat(bits uint64, ty ir.Type) float64 {
	if ty == ir.F32 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

func fromFloat(v float64, ty ir.Type) uint64 {
	if ty == ir.F32 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}

// step executes up to limit instructions of the lowered kernel, returning
// how many ran. It stops early when the tile finishes or blocks on a barrier
// or an empty recv queue.
func (t *tileCtx) step(limit int) (int, error) {
	p, regs, mem, prof, lastAddr := t.p, t.regs, t.r.mem, t.prof, t.lastAddr
	pc, executed, nt := t.pc, 0, t.r.opts.NumTiles
	var err error
loop:
	for executed < limit {
		in := &p.code[pc]
		if prof != nil {
			prof[in.idx]++
		}
		switch in.op {
		case ir.OpAdd:
			regs[in.dst] = truncTo(regs[in.a]+regs[in.b], in.ty)
		case ir.OpSub:
			regs[in.dst] = truncTo(regs[in.a]-regs[in.b], in.ty)
		case ir.OpMul:
			regs[in.dst] = truncTo(regs[in.a]*regs[in.b], in.ty)
		case ir.OpSDiv:
			b := signExt(regs[in.b], in.ty)
			if b == 0 {
				err = t.byZero("division", in)
				break loop
			}
			regs[in.dst] = truncTo(uint64(signExt(regs[in.a], in.ty)/b), in.ty)
		case ir.OpSRem:
			b := signExt(regs[in.b], in.ty)
			if b == 0 {
				err = t.byZero("remainder", in)
				break loop
			}
			regs[in.dst] = truncTo(uint64(signExt(regs[in.a], in.ty)%b), in.ty)
		case ir.OpAnd:
			regs[in.dst] = truncTo(regs[in.a]&regs[in.b], in.ty)
		case ir.OpOr:
			regs[in.dst] = truncTo(regs[in.a]|regs[in.b], in.ty)
		case ir.OpXor:
			regs[in.dst] = truncTo(regs[in.a]^regs[in.b], in.ty)
		case ir.OpShl:
			regs[in.dst] = truncTo(regs[in.a]<<(regs[in.b]&63), in.ty)
		case ir.OpLShr:
			regs[in.dst] = truncTo(regs[in.a], in.ty) >> (regs[in.b] & 63)
		case ir.OpAShr:
			regs[in.dst] = truncTo(uint64(signExt(regs[in.a], in.ty)>>(regs[in.b]&63)), in.ty)
		case ir.OpFAdd:
			regs[in.dst] = fromFloat(toFloat(regs[in.a], in.aty)+toFloat(regs[in.b], in.bty), in.ty)
		case ir.OpFSub:
			regs[in.dst] = fromFloat(toFloat(regs[in.a], in.aty)-toFloat(regs[in.b], in.bty), in.ty)
		case ir.OpFMul:
			regs[in.dst] = fromFloat(toFloat(regs[in.a], in.aty)*toFloat(regs[in.b], in.bty), in.ty)
		case ir.OpFDiv:
			regs[in.dst] = fromFloat(toFloat(regs[in.a], in.aty)/toFloat(regs[in.b], in.bty), in.ty)
		case ir.OpICmp:
			regs[in.dst] = boolBits(cmpInt(ir.CmpPred(in.c), signExt(regs[in.a], in.aty), signExt(regs[in.b], in.bty)))
		case ir.OpFCmp:
			regs[in.dst] = boolBits(cmpFloat(ir.CmpPred(in.c), toFloat(regs[in.a], in.aty), toFloat(regs[in.b], in.bty)))
		case ir.OpSelect:
			if regs[in.a]&1 != 0 {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case opTrunc:
			regs[in.dst] = truncTo(regs[in.a], in.ty)
		case opZExt:
			regs[in.dst] = truncTo(regs[in.a], in.aty)
		case opSExt:
			regs[in.dst] = truncTo(uint64(signExt(regs[in.a], in.aty)), in.ty)
		case opSIToFP:
			regs[in.dst] = fromFloat(float64(signExt(regs[in.a], in.aty)), in.ty)
		case opFPToSI:
			regs[in.dst] = truncTo(uint64(int64(toFloat(regs[in.a], in.aty))), in.ty)
		case opFPExt, opFPTrunc:
			regs[in.dst] = fromFloat(toFloat(regs[in.a], in.aty), in.ty)
		case opBitcast:
			regs[in.dst] = regs[in.a]
		case ir.OpGEP: // c holds the element stride
			regs[in.dst] = uint64(int64(regs[in.a]) + signExt(regs[in.b], in.bty)*int64(regs[in.c]))
		case ir.OpLoad:
			addr := regs[in.a]
			t.mem.AppendAddr(&lastAddr[in.idx], addr)
			regs[in.dst] = mem.LoadScalar(addr, in.ty)
		case ir.OpStore:
			addr := regs[in.b]
			t.mem.AppendAddr(&lastAddr[in.idx], addr)
			mem.StoreScalar(addr, in.ty, regs[in.a])
		case ir.OpAtomicAdd:
			addr := regs[in.a]
			t.mem.AppendAddr(&lastAddr[in.idx], addr)
			old := mem.LoadScalar(addr, in.ty)
			if in.ty.IsFloat() {
				mem.StoreScalar(addr, in.ty, fromFloat(toFloat(old, in.ty)+toFloat(regs[in.b], in.ty), in.ty))
			} else {
				mem.StoreScalar(addr, in.ty, truncTo(old+regs[in.b], in.ty))
			}
			regs[in.dst] = old
		case ir.OpBr:
			pc = t.enter(&p.edges[in.b])
			executed++
			continue
		case ir.OpCondBr: // b, c: the taken and not-taken edges
			e, bit := in.c, uint(1) // the path records the index of the target taken
			if regs[in.a]&1 != 0 {
				e, bit = in.b, 0
			}
			t.path.Branch(bit)
			pc = t.enter(&p.edges[e])
			executed++
			continue
		case ir.OpRet:
			t.done = true
			executed++
			break loop
		case opBarrier:
			// SPMD barrier: register arrival, proceed once every tile has
			// arrived at (or passed) the same barrier.
			if !t.atBarrier {
				t.atBarrier = true
				t.barriers++
			}
			for _, other := range t.r.tiles {
				if other.barriers < t.barriers {
					break loop
				}
			}
			t.atBarrier = false
		case opRecv:
			// An empty queue blocks, and so does a source that is no tile:
			// for good, which run reports as a deadlock.
			src := int(int64(regs[in.a]))
			if src < 0 || src >= nt || t.r.queues[src*nt+t.id].n == 0 {
				break loop
			}
			regs[in.dst] = t.r.queues[src*nt+t.id].pop()
			t.comm.Append(uint64(src))
		case opSend:
			dst := int(int64(regs[in.a]))
			if dst < 0 || dst >= nt {
				err = fmt.Errorf("interp: send to invalid tile %d", dst)
				break loop
			}
			t.r.queues[t.id*nt+dst].push(regs[in.b])
			t.comm.Append(uint64(dst))
		case opTileID:
			regs[in.dst] = uint64(t.id)
		case opNumTiles:
			regs[in.dst] = uint64(nt)
		case opSqrt, opExp, opLog, opSin, opCos, opFabs, opFloor:
			regs[in.dst] = fromFloat(unaryMath[in.op-opSqrt](toFloat(regs[in.a], in.aty)), in.ty)
		case opPow, opFMin, opFMax:
			regs[in.dst] = fromFloat(binaryMath[in.op-opPow](toFloat(regs[in.a], in.aty), toFloat(regs[in.b], in.bty)), in.ty)
		case opAcc:
			if err = t.accCall(in); err != nil {
				break loop
			}
		default: // opErr: what this instruction was lowered from cannot execute
			err = p.errs[in.a]
			break loop
		}
		pc++
		executed++
	}
	t.pc = pc
	t.dyn += int64(executed)
	t.r.steps += int64(executed)
	return executed, err
}

func (t *tileCtx) byZero(what string, in *inst) error {
	return fmt.Errorf("interp: %s by zero in %%%s", what, t.p.fn.InstrByIdx(int(in.idx)).Ident)
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(p ir.CmpPred, a, b int64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	case ir.PredGE:
		return a >= b
	}
	return false
}

func cmpFloat(p ir.CmpPred, a, b float64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	case ir.PredGE:
		return a >= b
	}
	return false
}
