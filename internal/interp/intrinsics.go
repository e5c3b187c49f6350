package interp

import (
	"fmt"
	"math"
	"strings"

	"mosaicsim/internal/ir"
	"mosaicsim/internal/trace"
)

// IsAccCall reports whether an intrinsic name denotes an accelerator
// invocation (the paper's accelerator API, §II-B).
func IsAccCall(name string) bool { return strings.HasPrefix(name, "acc_") }

// intrinsics resolves a callee name, once per static call, to the opcode
// step dispatches on and the number of operands it reads.
var intrinsics = map[string]struct {
	op    ir.Opcode
	nargs int
}{
	"barrier": {opBarrier, 0}, "recv": {opRecv, 1}, "send": {opSend, 2},
	"tile_id": {opTileID, 0}, "num_tiles": {opNumTiles, 0},
	"sqrt": {opSqrt, 1}, "exp": {opExp, 1}, "log": {opLog, 1}, "sin": {opSin, 1},
	"cos": {opCos, 1}, "fabs": {opFabs, 1}, "floor": {opFloor, 1},
	"pow": {opPow, 2}, "fmin": {opFMin, 2}, "fmax": {opFMax, 2},
}

// Math intrinsics by opcode, from opSqrt and from opPow.
var (
	unaryMath  = [...]func(float64) float64{math.Sqrt, math.Exp, math.Log, math.Sin, math.Cos, math.Abs, math.Floor}
	binaryMath = [...]func(a, b float64) float64{math.Pow, math.Min, math.Max}
)

// accCall records an accelerator invocation in the trace (the DTG "records
// the relevant parameters, e.g. matrix dimensions") and runs the functional
// implementation so memory reflects the accelerated computation.
func (t *tileCtx) accCall(in *inst) error {
	name := t.p.fn.InstrByIdx(int(in.idx)).Callee
	params := make([]int64, in.b)
	for i, s := range t.p.args[in.a : in.a+in.b] {
		params[i] = int64(t.regs[s])
	}
	t.acc = append(t.acc, trace.AccCall{Name: name, Params: params})
	impl, ok := t.r.opts.Acc[name]
	if !ok {
		return fmt.Errorf("interp: no functional implementation registered for accelerator %q", name)
	}
	impl(t.r.mem, params)
	return nil
}
