package keras

import (
	"context"
	"fmt"
	"strings"

	"mosaicsim/internal/accel"
	"mosaicsim/internal/config"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/workloads"
)

// This file implements the paper's actual §VII-C mechanism end to end:
// "the accelerator invocation calls then appear in the instrumented LLVM
// that MosaicSim operates on, so once the application is compiled and
// executed, the accelerator invocations are simulated whenever MosaicSim
// encounters their function calls." A layer graph is lowered to a kernel in
// the mini-C language — accelerated passes become acc_* invocations, host
// passes become compute loops with the same MAC count — and the kernel runs
// through the full compile → trace → simulate pipeline.

// Lowered is a model lowered to a simulatable kernel.
type Lowered struct {
	Source string
	// ArenaBytes is the scratch arena the accelerator operands live in.
	ArenaBytes int64
	// HostElems sizes the host-loop operand buffer.
	HostElems int64
}

// gemmShape describes one GEMM-like accelerated pass.
type gemmShape struct{ m, n, k int64 }

// Lower generates the training-step kernel for one batch. useAccel=false
// lowers every pass to host loops (the baseline core-only system).
func (m *Model) Lower(batch int, useAccel bool) *Lowered {
	var sb strings.Builder
	sb.WriteString("void kernel(float* arena, double* host, long hostElems) {\n")
	sb.WriteString("  double s0 = 0.0;\n  double s1 = 0.0;\n  double s2 = 0.0;\n  double s3 = 0.0;\n")
	var arena int64
	var hostLoops int
	emitGEMM := func(g gemmShape) {
		// Operands at fixed arena offsets (timing needs addresses, not data).
		aOff := int64(0)
		bOff := g.m * g.k * 4
		cOff := bOff + g.k*g.n*4
		total := cOff + g.m*g.n*4
		if total > arena {
			arena = total
		}
		fmt.Fprintf(&sb, "  acc_sgemm(arena + %d, arena + %d, arena + %d, %d, %d, %d);\n",
			aOff/4, bOff/4, cOff/4, g.m, g.n, g.k)
	}
	emitElementwise := func(n int64) {
		if 3*n*4 > arena {
			arena = 3 * n * 4
		}
		fmt.Fprintf(&sb, "  acc_elementwise(arena, arena + %d, arena + %d, %d);\n", n, 2*n, n)
	}
	emitHost := func(macs int64) {
		iters := macs / 4
		if iters < 1 {
			iters = 1
		}
		hostLoops++
		v := fmt.Sprintf("h%d", hostLoops)
		fmt.Fprintf(&sb, "  for (long %s = 0; %s < %d; %s++) {\n", v, v, iters, v)
		fmt.Fprintf(&sb, "    double x%d = host[%s %% hostElems];\n", hostLoops, v)
		fmt.Fprintf(&sb, "    s0 += x%d * 1.5;\n    s1 += x%d * 2.5;\n    s2 += x%d * 3.5;\n    s3 += x%d * 4.5;\n",
			hostLoops, hostLoops, hostLoops, hostLoops)
		sb.WriteString("  }\n")
	}

	in := m.Input
	type pass struct {
		layer Layer
		in    Shape
		bwd   bool
	}
	var passes []pass
	for _, l := range m.Layers {
		passes = append(passes, pass{l, in, false})
		in = l.Out(in)
	}
	for i := len(m.Layers) - 1; i >= 0; i-- {
		passes = append(passes, pass{passes[i].layer, passes[i].in, true})
	}
	for _, p := range passes {
		cost := p.layer.Fwd(p.in)
		if p.bwd {
			cost = p.layer.Bwd(p.in)
		}
		if cost.MACs == 0 {
			continue
		}
		if useAccel && p.layer.Accelerated(p.bwd) {
			switch l := p.layer.(type) {
			case Dense:
				g := gemmShape{m: int64(batch), n: int64(l.Units), k: p.in.Elems()}
				emitGEMM(g)
				if p.bwd {
					emitGEMM(g) // weight gradients: second GEMM
				}
			case Conv2D:
				// im2col: (batch·H·W) x (K²·Cin) times (K²·Cin) x Cout.
				g := gemmShape{
					m: int64(batch) * int64(p.in.H) * int64(p.in.W),
					n: int64(l.Filters),
					k: int64(l.Kernel*l.Kernel) * int64(p.in.C),
				}
				emitGEMM(g)
				if p.bwd {
					emitGEMM(g)
				}
			default:
				// ReLU/BatchNorm/Dropout/Add/Pool: one element-wise pass
				// over the activations.
				emitElementwise(int64(batch) * p.in.Elems())
			}
		} else {
			emitHost(int64(batch) * cost.MACs)
		}
	}
	sb.WriteString("  host[0] = s0 + s1 + s2 + s3;\n}\n")
	if arena < 4096 {
		arena = 4096
	}
	return &Lowered{Source: sb.String(), ArenaBytes: arena, HostElems: 4096}
}

// SimulateTrainingStep runs the lowered kernel through the full pipeline on
// a single host core with the given accelerator models and returns the
// system result. The lowered kernel becomes an ad-hoc workload — named by
// model, batch, and lowering variant so accelerated and host-only lowerings
// never collide in the session engine's artifact cache — and functional
// accelerator implementations execute on the arena, so the DTG records real
// invocation parameters.
func (m *Model) SimulateTrainingStep(ctx context.Context, batch int, useAccel bool, host config.CoreConfig, accels map[string]soc.AccelModel) (soc.Result, error) {
	low := m.Lower(batch, useAccel)
	variant := "host"
	if useAccel {
		variant = "accel"
	}
	// Arena + host buffer + slack.
	img := low.ArenaBytes + low.HostElems*8 + (1 << 20)
	w := &workloads.Workload{
		Name: fmt.Sprintf("%s-b%d-%s", m.Name, batch, variant),
		Desc: fmt.Sprintf("lowered %s training step (batch %d, %s)", m.Name, batch, variant),
		Src:  low.Source,
		Mem:  img * 2,
		Setup: func(mem *interp.Memory, _ workloads.Scale) workloads.Instance {
			arena := mem.Alloc(low.ArenaBytes, 64)
			hostBuf := mem.Alloc(low.HostElems*8, 64)
			return workloads.Instance{
				Args: []uint64{arena, hostBuf, uint64(low.HostElems)},
				Acc:  accel.FuncRegistry(),
			}
		},
	}
	s, err := sim.NewSession(sim.Options{
		Workload: w,
		Config:   config.Homogeneous(m.Name, host, 1, config.TableIIMem()),
		Accels:   accels,
	})
	if err != nil {
		return soc.Result{}, err
	}
	return s.Run(ctx)
}
