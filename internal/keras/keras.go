// Package keras implements MosaicSim-Go's TensorFlow/Keras performance
// modeling (§VII-C of the paper): deep-learning models are layer graphs
// whose forward and backward passes lower to accelerator invocations (via
// the accelerator performance models of §IV) or, for layers without
// accelerator support, to general-purpose-core execution. The package
// reproduces the paper's energy-delay-product comparison between an
// out-of-order server core and an accelerator-oriented SoC.
package keras

import (
	"fmt"

	"mosaicsim/internal/accel"
	"mosaicsim/internal/config"
)

// Shape is a tensor shape (trailing dims of one sample).
type Shape struct {
	H, W, C int // H×W spatial, C channels; dense layers use C only (H=W=1)
}

// Elems returns the element count of the shape.
func (s Shape) Elems() int64 { return int64(max(s.H, 1)) * int64(max(s.W, 1)) * int64(s.C) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Cost is the work of one pass of a layer for a single sample.
type Cost struct {
	MACs  int64 // multiply-accumulates
	Bytes int64 // activation + weight traffic
}

// Layer is one node of the model graph.
type Layer interface {
	Name() string
	// Out returns the output shape given the input shape.
	Out(in Shape) Shape
	// Fwd and Bwd return per-sample costs.
	Fwd(in Shape) Cost
	Bwd(in Shape) Cost
	// Accelerated reports whether the SoC has accelerator support for the
	// given pass (§VII-C: e.g. no accelerator for conv backprop).
	Accelerated(backward bool) bool
}

// Conv2D is a 2D convolution (same padding).
type Conv2D struct {
	Filters int
	Kernel  int
	// BackpropAccel reflects whether the SoC provides a conv-backprop
	// accelerator (the paper's does not).
	BackpropAccel bool
}

// Name implements Layer.
func (l Conv2D) Name() string { return fmt.Sprintf("conv%dx%d-%d", l.Kernel, l.Kernel, l.Filters) }

// Out implements Layer.
func (l Conv2D) Out(in Shape) Shape { return Shape{H: in.H, W: in.W, C: l.Filters} }

// Fwd implements Layer: MACs = H·W·K²·Cin·Cout.
func (l Conv2D) Fwd(in Shape) Cost {
	macs := int64(in.H) * int64(in.W) * int64(l.Kernel*l.Kernel) * int64(in.C) * int64(l.Filters)
	bytes := 4 * (in.Elems() + l.Out(in).Elems() + int64(l.Kernel*l.Kernel*in.C*l.Filters))
	return Cost{MACs: macs, Bytes: bytes}
}

// Bwd implements Layer: gradient wrt inputs and weights ≈ 2× forward.
func (l Conv2D) Bwd(in Shape) Cost {
	f := l.Fwd(in)
	return Cost{MACs: 2 * f.MACs, Bytes: 2 * f.Bytes}
}

// Accelerated implements Layer.
func (l Conv2D) Accelerated(backward bool) bool { return !backward || l.BackpropAccel }

// Dense is a fully connected layer.
type Dense struct{ Units int }

// Name implements Layer.
func (l Dense) Name() string { return fmt.Sprintf("dense-%d", l.Units) }

// Out implements Layer.
func (l Dense) Out(in Shape) Shape { return Shape{C: l.Units} }

// Fwd implements Layer.
func (l Dense) Fwd(in Shape) Cost {
	macs := in.Elems() * int64(l.Units)
	return Cost{MACs: macs, Bytes: 4 * (in.Elems() + int64(l.Units) + macs/64)}
}

// Bwd implements Layer.
func (l Dense) Bwd(in Shape) Cost {
	f := l.Fwd(in)
	return Cost{MACs: 2 * f.MACs, Bytes: 2 * f.Bytes}
}

// Accelerated implements Layer.
func (l Dense) Accelerated(bool) bool { return true }

// Elementwise covers ReLU, BatchNorm, Dropout, and residual adds: one or a
// few ops per element, accelerated by the element-wise unit.
type Elementwise struct {
	Kind       string // "relu", "batchnorm", "dropout", "add"
	OpsPerElem int
}

// Name implements Layer.
func (l Elementwise) Name() string { return l.Kind }

// Out implements Layer.
func (l Elementwise) Out(in Shape) Shape { return in }

// Fwd implements Layer.
func (l Elementwise) Fwd(in Shape) Cost {
	ops := int64(max(l.OpsPerElem, 1))
	return Cost{MACs: in.Elems() * ops, Bytes: 8 * in.Elems()}
}

// Bwd implements Layer.
func (l Elementwise) Bwd(in Shape) Cost { return l.Fwd(in) }

// Accelerated implements Layer.
func (l Elementwise) Accelerated(bool) bool { return true }

// MaxPool halves spatial dimensions.
type MaxPool struct{ Stride int }

// Name implements Layer.
func (l MaxPool) Name() string { return "maxpool" }

// Out implements Layer.
func (l MaxPool) Out(in Shape) Shape {
	s := max(l.Stride, 2)
	return Shape{H: max(in.H/s, 1), W: max(in.W/s, 1), C: in.C}
}

// Fwd implements Layer.
func (l MaxPool) Fwd(in Shape) Cost { return Cost{MACs: in.Elems(), Bytes: 4 * in.Elems()} }

// Bwd implements Layer.
func (l MaxPool) Bwd(in Shape) Cost { return l.Fwd(in) }

// Accelerated implements Layer.
func (l MaxPool) Accelerated(bool) bool { return true }

// HostStage models non-neural work with no accelerator: GraphSage's random
// walk sampling and embedding lookup (§VII-C).
type HostStage struct {
	Kind string
	Ops  int64 // scalar operations per sample
}

// Name implements Layer.
func (l HostStage) Name() string { return l.Kind }

// Out implements Layer.
func (l HostStage) Out(in Shape) Shape { return in }

// Fwd implements Layer.
func (l HostStage) Fwd(in Shape) Cost { return Cost{MACs: l.Ops, Bytes: 8 * l.Ops} }

// Bwd implements Layer.
func (l HostStage) Bwd(in Shape) Cost { return Cost{} }

// Accelerated implements Layer.
func (l HostStage) Accelerated(bool) bool { return false }

// Model is a sequential layer graph.
type Model struct {
	Name   string
	Input  Shape
	Layers []Layer
}

// Estimate is a performance/energy estimate for one training step.
type Estimate struct {
	Cycles   int64
	EnergyPJ float64
}

// CoreParams models the general-purpose core executing tensor math.
type CoreParams struct {
	Cfg config.CoreConfig
	// FLOPsPerCycle is the sustained MAC throughput of the core.
	FLOPsPerCycle float64
	// MemBytesPerCycle is the sustained memory bandwidth seen by the core.
	MemBytesPerCycle float64
}

// DefaultOoOCore returns the §VII-C baseline: an out-of-order server core.
func DefaultOoOCore() CoreParams {
	return CoreParams{Cfg: config.OutOfOrderCore(), FLOPsPerCycle: 2, MemBytesPerCycle: 8}
}

func (p CoreParams) costCycles(c Cost) int64 {
	compute := float64(c.MACs) / p.FLOPsPerCycle
	memory := float64(c.Bytes) / p.MemBytesPerCycle
	if compute > memory {
		return int64(compute)
	}
	return int64(memory)
}

func (p CoreParams) costEnergyPJ(c Cost) float64 {
	perMAC := config.EnergyPerClassPJ[config.ClassFPMul] + config.EnergyPerClassPJ[config.ClassFPALU]
	return float64(c.MACs)*perMAC + float64(c.Bytes)*2.5
}

// trainCosts accumulates forward+backward costs per layer.
func (m *Model) trainCosts() []struct {
	layer Layer
	fwd   Cost
	bwd   Cost
} {
	var out []struct {
		layer Layer
		fwd   Cost
		bwd   Cost
	}
	in := m.Input
	for _, l := range m.Layers {
		out = append(out, struct {
			layer Layer
			fwd   Cost
			bwd   Cost
		}{l, l.Fwd(in), l.Bwd(in)})
		in = l.Out(in)
	}
	return out
}

// EstimateOnCore estimates one training step of batch samples on the
// baseline core alone.
func (m *Model) EstimateOnCore(p CoreParams, batch int) Estimate {
	var e Estimate
	for _, lc := range m.trainCosts() {
		for _, c := range []Cost{lc.fwd, lc.bwd} {
			e.Cycles += int64(batch) * p.costCycles(c)
			e.EnergyPJ += float64(batch) * p.costEnergyPJ(c)
		}
	}
	return e
}

// SoCParams models the accelerator-oriented SoC: n accelerator instances
// sharing memory bandwidth, with unaccelerated stages falling back to the
// host core.
type SoCParams struct {
	Host      CoreParams
	Instances int
	// MACsPerCycle is the per-instance accelerator MAC throughput.
	MACsPerCycle float64
	// MemBytesPerCycle is the DMA bandwidth per instance.
	MemBytesPerCycle float64
	// PowerW is per-instance accelerator power.
	PowerW float64
	// ClockMHz is the accelerator clock.
	ClockMHz int
}

// DefaultSoC returns the §VII-C SoC with n accelerator instances built from
// the §VI-A accelerator family.
func DefaultSoC(n int) SoCParams {
	dp := accel.DesignPoint{PLMBytes: 256 << 10, Lanes: 20}
	a := accel.NewSGEMM(dp)
	return SoCParams{
		Host:             DefaultOoOCore(),
		Instances:        n,
		MACsPerCycle:     float64(dp.Lanes),
		MemBytesPerCycle: float64(a.DMABytesPerCycle),
		PowerW:           a.PowerW,
		ClockMHz:         a.ClockMHz,
	}
}

// EstimateOnSoC estimates one training step on the accelerator SoC:
// accelerated passes run across the instances; unaccelerated passes run on
// the host core (§VII-C: ConvNet backprop and GraphSage sampling fall back).
func (m *Model) EstimateOnSoC(p SoCParams, batch int) Estimate {
	var e Estimate
	inst := max(p.Instances, 1)
	for _, lc := range m.trainCosts() {
		passes := []struct {
			c        Cost
			backward bool
		}{{lc.fwd, false}, {lc.bwd, true}}
		for _, pass := range passes {
			if pass.c.MACs == 0 && pass.c.Bytes == 0 {
				continue
			}
			if lc.layer.Accelerated(pass.backward) {
				compute := float64(pass.c.MACs) * float64(batch) / (p.MACsPerCycle * float64(inst))
				memory := float64(pass.c.Bytes) * float64(batch) / (p.MemBytesPerCycle * float64(inst))
				cyc := int64(compute)
				if memory > compute {
					cyc = int64(memory)
				}
				e.Cycles += cyc
				seconds := float64(cyc) / (float64(p.ClockMHz) * 1e6)
				e.EnergyPJ += p.PowerW * float64(inst) * seconds * 1e12
			} else {
				// Host fallback runs at the host clock; convert to
				// SoC-clock cycles so the estimate stays in one domain.
				hostCyc := int64(batch) * p.Host.costCycles(pass.c)
				e.Cycles += hostCyc * int64(p.ClockMHz) / int64(p.Host.Cfg.ClockMHz)
				e.EnergyPJ += float64(batch) * p.Host.costEnergyPJ(pass.c)
			}
		}
	}
	return e
}

// EDPImprovement compares a training step on the baseline core vs the SoC
// (Fig. 14's metric).
func (m *Model) EDPImprovement(core CoreParams, socp SoCParams, batch int) float64 {
	base := m.EstimateOnCore(core, batch)
	opt := m.EstimateOnSoC(socp, batch)
	b := energySummary{Cycles: base.Cycles, ClockMHz: core.Cfg.ClockMHz, DynamicPJ: base.EnergyPJ, AreaMM2: core.Cfg.AreaMM2}
	o := energySummary{Cycles: opt.Cycles, ClockMHz: socp.ClockMHz, DynamicPJ: opt.EnergyPJ, AreaMM2: core.Cfg.AreaMM2}
	return improvement(b, o)
}
