// Package mosaicsim is a from-scratch Go implementation of MosaicSim, the
// lightweight, modular simulator for heterogeneous systems presented at
// ISPASS 2020. It provides the full paper pipeline behind a small facade:
//
//	mod, _ := mosaicsim.Compile(src, "vecadd")       // mini-C -> SSA IR
//	k, _   := mosaicsim.KernelOf(mod, "kernel")      // static DDG
//	mem    := mosaicsim.NewMemory(1 << 24)           // simulated memory
//	tr, _  := k.Trace(mem, args, 4, nil)             // dynamic trace (DTG)
//	res, _ := mosaicsim.Simulate(cfg, k, tr, nil)    // timing simulation
//
// The heavy lifting lives in the internal packages: ir (the LLVM-IR stand-in),
// cc (the kernel front end), ddg (static dependence graphs), interp (the
// dynamic trace generator), core (the graph-based tile timing model), mem
// (caches + DRAM), soc (the Interleaver), accel (accelerator models), dae
// (the Decoupled Access/Execute compiler pass), href (the hardware-reference
// model), keras (DNN performance modeling), and workloads (the benchmark
// suite).
package mosaicsim

import (
	"context"
	"fmt"

	"mosaicsim/internal/cc"
	"mosaicsim/internal/config"
	"mosaicsim/internal/dae"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/trace"
	"mosaicsim/internal/workloads"
)

// Re-exported core types. The aliases keep user code to one import.
type (
	// Memory is the byte-addressed simulated memory image.
	Memory = interp.Memory
	// Module is a compiled IR module.
	Module = ir.Module
	// Function is one IR kernel.
	Function = ir.Function
	// Trace is a kernel's dynamic trace across tiles.
	Trace = trace.Trace
	// SystemConfig describes a simulated SoC.
	SystemConfig = config.SystemConfig
	// CoreConfig holds one tile's microarchitectural resource limits.
	CoreConfig = config.CoreConfig
	// CoreSpec instantiates Count copies of a core configuration.
	CoreSpec = config.CoreSpec
	// MemConfig describes the memory hierarchy.
	MemConfig = config.MemConfig
	// TileDef declares one entry of a declarative tile list: a registered
	// kind (or explicit core config), an instance count, a DAE role, a clock
	// override, and an optional NoC mesh placement.
	TileDef = config.TileDef
	// NoCConfig arranges tiles on a 2D mesh network-on-chip.
	NoCConfig = config.NoCConfig
	// Result is a finished simulation's system-wide estimate.
	Result = soc.Result
	// System is an instantiated SoC.
	System = soc.System
	// AccelModel is a pluggable accelerator performance model.
	AccelModel = soc.AccelModel
	// AccFunc is a functional accelerator implementation for tracing.
	AccFunc = interp.AccFunc
)

// Configuration presets from the paper.
var (
	// OutOfOrderCore is the Table II out-of-order core.
	OutOfOrderCore = config.OutOfOrderCore
	// InOrderCore is the Table II in-order core.
	InOrderCore = config.InOrderCore
	// TableIIMem is the Table II DAE-study memory hierarchy.
	TableIIMem = config.TableIIMem
)

// NewMemory allocates a simulated memory image.
func NewMemory(bytes int64) *Memory { return interp.NewMemory(bytes) }

// Compile compiles mini-C kernel source into a verified IR module (no
// optimization — the O0 pipeline).
func Compile(src, moduleName string) (*Module, error) { return cc.Compile(src, moduleName) }

// OptConfig selects the IR optimization pipeline (DESIGN.md §5g): a level
// (O0/O2), or an explicit pass list, plus the unroll factor. The zero
// value is O0 — the empty pipeline.
type OptConfig = ir.OptConfig

// ParseOptConfig validates and normalizes a level/pass-list/unroll triple
// the way the CLI flags -O/-passes/-unroll do.
var ParseOptConfig = ir.ParseOptConfig

// Kernel bundles a kernel function with its static data-dependence graph.
type Kernel struct {
	Fn    *Function
	Graph *ddg.Graph
}

// KernelOf extracts a function from a module and builds its DDG.
func KernelOf(m *Module, name string) (*Kernel, error) {
	f := m.Func(name)
	if f == nil {
		return nil, fmt.Errorf("mosaicsim: module %q has no function %q", m.Ident, name)
	}
	return &Kernel{Fn: f, Graph: ddg.Build(f)}, nil
}

// Trace natively executes the kernel on tiles SPMD tiles (the Dynamic Trace
// Generator), producing the control-flow, memory, communication, and
// accelerator traces the timing simulation replays. acc supplies functional
// implementations for any acc_* intrinsics the kernel invokes.
func (k *Kernel) Trace(mem *Memory, args []uint64, tiles int, acc map[string]AccFunc) (*Trace, error) {
	res, err := interp.Run(k.Fn, mem, args, interp.Options{NumTiles: tiles, Acc: acc})
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// Simulate runs the timing simulation of a traced kernel on the configured
// homogeneous system and returns the system-wide estimate.
func Simulate(cfg *SystemConfig, k *Kernel, tr *Trace, accels map[string]AccelModel) (Result, error) {
	sys, err := soc.NewSPMD(cfg, k.Graph, tr, accels)
	if err != nil {
		return Result{}, err
	}
	if err := sys.Run(context.Background(), 0); err != nil {
		return Result{}, err
	}
	return sys.Result(), nil
}

// Decouple applies the DeSC-style Decoupled Access/Execute compiler pass
// (§VII-A), returning access and execute kernels to run on paired tiles
// (even tiles access, odd tiles execute).
func Decouple(k *Kernel) (access, execute *Kernel, err error) {
	s, err := dae.Slice(k.Fn)
	if err != nil {
		return nil, nil, err
	}
	return &Kernel{Fn: s.Access, Graph: ddg.Build(s.Access)},
		&Kernel{Fn: s.Execute, Graph: ddg.Build(s.Execute)}, nil
}

// Session engine re-exports. The cancellable pipeline engine (internal/sim)
// is the preferred library entry point: a Session owns the whole
// Compile → DDG → Trace → BuildSystem → Run → Report pipeline for one
// workload, shares compilations and traces through a content-keyed cache,
// and honors context cancellation end to end:
//
//	w, _ := mosaicsim.ResolveWorkload("sgemm")
//	s, _ := mosaicsim.NewSession(mosaicsim.SessionOptions{
//		Workload: w, Scale: mosaicsim.ScaleSmall, Config: &mosaicsim.SystemConfig{
//			Tiles: []mosaicsim.TileDef{{Kind: "ooo", Count: 4}}, Mem: mosaicsim.TableIIMem(),
//		},
//	})
//	res, err := s.Run(ctx)
type (
	// Session drives one kernel through the pipeline, stage by stage.
	Session = sim.Session
	// SessionOptions configures a Session.
	SessionOptions = sim.Options
	// ArtifactCache shares compile/DDG/trace artifacts across sessions.
	ArtifactCache = sim.Cache
	// Workload is one benchmark (or an ad-hoc kernel with a Setup function).
	Workload = workloads.Workload
	// Instance is one generated run of a workload (its arguments, optional
	// result check, and functional accelerator implementations).
	Instance = workloads.Instance
	// Scale selects a workload input size.
	Scale = workloads.Scale
)

// The DAE slicing mode (SessionOptions.Slicing; its zero value replicates the
// kernel SPMD) and workload scales.
const (
	SliceDAE   = sim.SliceDAE
	ScaleTiny  = workloads.Tiny
	ScaleSmall = workloads.Small
)

// Session engine constructors and workload lookups.
var (
	// NewSession validates options and binds a session to its cache.
	NewSession = sim.NewSession
	// NewArtifactCache builds a private artifact cache (sessions otherwise
	// share one process-wide cache).
	NewArtifactCache = sim.NewCache
	// ResolveWorkload finds a built-in workload by name, with a did-you-mean
	// suggestion on unknown names.
	ResolveWorkload = workloads.Resolve
	// WorkloadNames lists the built-in workload names.
	WorkloadNames = workloads.Names
)

// Args helpers for building kernel argument lists.
var (
	// ArgPtr encodes a pointer argument.
	ArgPtr = interp.ArgPtr
	// ArgI64 encodes an integer argument.
	ArgI64 = interp.ArgI64
)
