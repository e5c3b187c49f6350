// Package href is MosaicSim-Go's hardware-reference model: the stand-in for
// the paper's "real machine" measurements (the Intel Xeon E5-2667 v3 with
// VTune kernel filtering, Table I) used by the accuracy and scaling studies
// (Figs. 5-9).
//
// The reference model is an independently-parameterized execution model that
// reproduces the paper's stated source of simulator/hardware discrepancy:
// LLVM IR instructions do not map 1:1 onto machine instructions (§VI-A —
// "LLVM IR requires two instructions ... while the x86 ISA can perform this
// with one: MOV"). Concretely it:
//
//   - fuses address computation into memory operations (gep whose only uses
//     are memory addressing costs nothing, like an x86 addressing mode);
//   - treats phi nodes and value casts as register renaming (free);
//   - fuses compare-and-branch idioms (icmp used only by condbr);
//   - runs with a hardware-grade branch predictor (modeled as perfect) and
//     its own latency table.
//
// Accuracy factors are then MosaicSim cycles / reference cycles, exactly as
// the paper divides simulated by measured cycles.
package href

import (
	"context"

	"mosaicsim/internal/config"
	"mosaicsim/internal/core"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/trace"
)

// FreeMask computes, per static instruction, whether the reference ISA fuses
// it away: phis and casts (register renaming), geps used only as memory
// addresses (addressing modes), and compares used only by a branch
// (cmp+jcc).
func FreeMask(f *ir.Function) []bool {
	f.AssignIDs()
	mask := make([]bool, f.NumInstrs())
	// Collect use sites.
	type useInfo struct {
		onlyMemAddr bool
		onlyBranch  bool
		uses        int
	}
	info := make([]useInfo, f.NumInstrs())
	for i := range info {
		info[i] = useInfo{onlyMemAddr: true, onlyBranch: true}
	}
	note := func(v ir.Value, asMemAddr, asBranch bool) {
		d, ok := v.(*ir.Instr)
		if !ok {
			return
		}
		u := &info[d.Idx]
		u.uses++
		if !asMemAddr {
			u.onlyMemAddr = false
		}
		if !asBranch {
			u.onlyBranch = false
		}
	}
	for _, in := range f.Instrs() {
		addr := in.AddrOperand()
		for _, a := range in.Args {
			note(a, in.IsMemory() && a == addr, in.Op == ir.OpCondBr)
		}
	}
	for _, in := range f.Instrs() {
		switch in.Op {
		case ir.OpPhi, ir.OpCast:
			mask[in.Idx] = true
		case ir.OpGEP:
			if info[in.Idx].uses > 0 && info[in.Idx].onlyMemAddr {
				mask[in.Idx] = true
			}
		case ir.OpICmp, ir.OpFCmp:
			if info[in.Idx].uses > 0 && info[in.Idx].onlyBranch {
				mask[in.Idx] = true
			}
		}
	}
	return mask
}

// ReferenceCore returns the reference machine's core parameters: Table I
// clock, a deep out-of-order engine, hardware branch prediction, and the
// reference latency table (x86-like: slightly slower FP, faster special
// ops).
func ReferenceCore() config.CoreConfig {
	c := config.XeonLikeCore()
	c.Name = "href"
	c.Latencies = map[string]int64{
		"int_alu": 1, "int_mul": 3, "int_div": 21,
		"fp_alu": 4, "fp_mul": 5, "fp_div": 14,
		"branch": 1, "cast": 1, "special": 1,
	}
	return c
}

// System builds the reference machine for a traced kernel: n cores of the
// Table I system with idiom fusion enabled. Atomic RMWs pay the locked-
// operation cost plus cross-core contention that grows with the core count —
// the real-machine effect MosaicSim's early-stage memory system does not
// model (§VI-A), which is what makes BFS scaling diverge in Fig. 7.
func System(g *ddg.Graph, tr *trace.Trace, accels map[string]soc.AccelModel) (*soc.System, error) {
	ref := ReferenceCore()
	ref.AtomicExtraLatency = 25 + 20*int64(len(tr.Tiles)-1)
	sys, err := soc.NewSPMD(config.Homogeneous("href", ref, len(tr.Tiles), config.TableIMem()), g, tr, accels)
	if err != nil {
		return nil, err
	}
	mask := FreeMask(g.Fn)
	for _, c := range sys.Cores {
		c.SetFreeInstrs(mask)
	}
	return sys, nil
}

// Measure runs the reference machine on a traced kernel and returns its
// "measured" cycle count. A nil ctx is treated as context.Background().
func Measure(g *ddg.Graph, tr *trace.Trace) (int64, error) {
	return MeasureCtx(context.Background(), g, tr)
}

// MeasureCtx is Measure under a context: cancelling ctx aborts the reference
// run mid-simulation.
func MeasureCtx(ctx context.Context, g *ddg.Graph, tr *trace.Trace) (int64, error) {
	sys, err := System(g, tr, nil)
	if err != nil {
		return 0, err
	}
	if err := sys.Run(ctx, 0); err != nil {
		return 0, err
	}
	return sys.Cycles, nil
}

// MeasureTiles is Measure for heterogeneous per-tile kernels.
func MeasureTiles(tiles []soc.TileSpec) (int64, error) {
	ref := ReferenceCore()
	for i := range tiles {
		tiles[i].Cfg = ref
	}
	sys, err := soc.New("href", tiles, config.TableIMem(), nil)
	if err != nil {
		return 0, err
	}
	for i, c := range sys.Cores {
		c.SetFreeInstrs(FreeMask(tiles[i].Graph.Fn))
	}
	if err := sys.Run(context.Background(), 0); err != nil {
		return 0, err
	}
	return sys.Cycles, nil
}

// Ensure core's free-instruction hook stays exported as used here.
var _ = (*core.Core)(nil)
