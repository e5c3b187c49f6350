package main

import (
	"context"
	"fmt"
	"time"

	"mosaicsim"
)

// simOp is one timing simulation: a kernel on a system.
type simOp struct {
	id     string
	kernel string
	cfg    *mosaicsim.SystemConfig
	// traced is the dynamic instruction count of the op's trace, which the
	// timing run must retire exactly.
	traced int64
}

// timing is the workload behind dense_1t, sparse_1t and mesh64: setup traces
// every kernel into a fresh artifact cache, a pass builds and runs every op
// once on the warm cache.
type timing struct {
	cfg   runConfig
	scale mosaicsim.Scale
	ops   []simOp
	cache *mosaicsim.ArtifactCache
	// probe is the CLI layer probe that belongs to this workload.
	probe func(context.Context, *layerContext)
}

// oneTileOps is the op list of dense_1t and sparse_1t: each kernel on one
// out-of-order tile over the Table II memory system. The seed orders the
// kernels and nudges two memory latencies, so simulated statistics differ
// between seeds while the host work stays the same.
func oneTileOps(cfg runConfig, kernels []string) []simOp {
	rng := cfg.rng()
	rng.Shuffle(len(kernels), func(i, j int) { kernels[i], kernels[j] = kernels[j], kernels[i] })
	dram := int64(190 + rng.Intn(21))
	l2 := int64(5 + rng.Intn(3))
	ops := make([]simOp, len(kernels))
	for i, k := range kernels {
		mem := mosaicsim.TableIIMem()
		mem.DRAM.MinLatency = dram
		mem.L2.LatencyCycles = l2
		ops[i] = simOp{id: k, kernel: k, cfg: &mosaicsim.SystemConfig{
			Name:  k + "-1xooo",
			Cores: []mosaicsim.CoreSpec{{Core: mosaicsim.OutOfOrderCore(), Count: 1}},
			Mem:   mem,
		}}
	}
	return ops
}

// meshOps is the op list of mesh64: sgemm on 64 out-of-order tiles on an 8x8
// mesh with 4-cycle hops, with and without the coherence directory. The seed
// picks which runs first and nudges the DRAM latency.
func meshOps(cfg runConfig) []simOp {
	rng := cfg.rng()
	tiles, width := 64, 8
	if cfg.Smoke {
		tiles, width = 4, 2
	}
	dram := int64(190 + rng.Intn(21))
	var ops []simOp
	for _, dir := range []bool{true, false} {
		mem := mosaicsim.TableIIMem()
		mem.DRAM.MinLatency = dram
		mem.Directory = dir
		id := "sgemm-dir-off"
		if dir {
			id = "sgemm-dir-on"
		}
		ops = append(ops, simOp{id: id, kernel: "sgemm", cfg: &mosaicsim.SystemConfig{
			Name:  id,
			Cores: []mosaicsim.CoreSpec{{Core: mosaicsim.OutOfOrderCore(), Count: tiles}},
			Mem:   mem,
			NoC:   &mosaicsim.NoCConfig{MeshWidth: width, HopCycles: 4},
		}})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func newTiming(cfg runConfig, ops []simOp, probe func(context.Context, *layerContext)) *timing {
	t := &timing{cfg: cfg, scale: mosaicsim.ScaleSmall, ops: ops, probe: probe}
	if cfg.Smoke {
		t.scale = mosaicsim.ScaleTiny
	}
	return t
}

func (t *timing) fresh() bool { return false }
func (t *timing) close()      { t.cache = nil }

func (t *timing) session(op simOp) (*mosaicsim.Session, error) {
	w, err := mosaicsim.ResolveWorkload(op.kernel)
	if err != nil {
		return nil, err
	}
	return mosaicsim.NewSession(mosaicsim.SessionOptions{
		Workload: w, Scale: t.scale, Config: op.cfg, Cache: t.cache,
	})
}

// setup fills a fresh artifact cache: compile, DDG and trace of every op's
// kernel, which is the front-end cost a cold Session.Run would pay.
func (t *timing) setup(ctx context.Context, rec *recorder) error {
	t.cache = mosaicsim.NewArtifactCache()
	for i := range t.ops {
		s, err := t.session(t.ops[i])
		if err != nil {
			return err
		}
		op := rec.newOp()
		root := rec.begin("setup", -1, op)
		err = rec.timed("setup/compile", root, op, func() error { _, err := s.Compile(ctx); return err })
		if err == nil {
			err = rec.timed("setup/ddg", root, op, func() error { _, err := s.Graph(ctx); return err })
		}
		if err == nil {
			err = rec.timed("setup/trace", root, op, func() error {
				tr, err := s.Trace(ctx)
				if err == nil {
					t.ops[i].traced = tr.TotalDynInstrs()
				}
				return err
			})
		}
		rec.end(root)
		if err != nil {
			return fmt.Errorf("%s: %w", t.ops[i].id, err)
		}
	}
	return nil
}

func (t *timing) pass(ctx context.Context, rec *recorder) (passResult, error) {
	var p passResult
	before := t.cache.Counters()
	start := time.Now()
	for _, op := range t.ops {
		p.Ops = append(p.Ops, t.run(ctx, rec, op))
	}
	p.Wall = time.Since(start)
	after := t.cache.Counters()
	p.Counts = map[string]float64{
		"sim.artifact_hits":      float64(after.Hits - before.Hits),
		"sim.artifact_misses":    float64(after.Misses - before.Misses),
		"sim.artifact_evictions": float64(after.Evictions - before.Evictions),
	}
	return p, nil
}

// run is one op. Untraced it is Session.Run, what a library user calls;
// traced it is the same pipeline taken stage by stage with a span around
// each call into a layer.
func (t *timing) run(ctx context.Context, rec *recorder, op simOp) opResult {
	r := opResult{ID: op.id}
	s, err := t.session(op)
	if err != nil {
		r.Err = err
		return r
	}
	var res mosaicsim.Result
	var sys *mosaicsim.System
	start := time.Now()
	if rec == nil {
		res, err = s.Run(ctx)
		sys = s.System()
	} else {
		id := rec.newOp()
		root := rec.begin("op", -1, id)
		err = rec.timed("compile", root, id, func() error { _, err := s.Compile(ctx); return err })
		if err == nil {
			err = rec.timed("ddg", root, id, func() error { _, err := s.Graph(ctx); return err })
		}
		if err == nil {
			err = rec.timed("trace", root, id, func() error { _, err := s.Trace(ctx); return err })
		}
		if err == nil {
			err = rec.timed("build", root, id, func() error { sys, err = s.BuildSystem(ctx); return err })
		}
		if err == nil {
			err = rec.timed("run", root, id, func() error { return sys.Run(ctx, 0) })
		}
		if err == nil {
			err = rec.timed("result", root, id, func() error { res = sys.Result(); return nil })
		}
		rec.end(root)
	}
	r.Wall = time.Since(start)
	if err != nil {
		r.Err = err
		return r
	}
	r.Stats = statsOf(res)
	if res.Instrs != op.traced {
		r.Err = fmt.Errorf("timing run retired %d instructions, the trace holds %d", res.Instrs, op.traced)
	}
	r.Counts = resultCounts(res)
	if sys != nil {
		r.Counts["soc.stepped_cycles"] = float64(sys.SteppedCycles)
		r.Counts["soc.skipped_cycles"] = float64(sys.SkippedCycles)
	}
	return r
}

func statsOf(res mosaicsim.Result) opStats {
	return opStats{
		Cycles: res.Cycles, Instrs: res.Instrs,
		L1Accesses: res.L1.Accesses, L1Misses: res.L1.Misses,
		L2Accesses: res.L2.Accesses, L2Misses: res.L2.Misses,
		LLCAccesses: res.LLC.Accesses, LLCMisses: res.LLC.Misses,
		DRAMReads: res.DRAM.Reads,
	}
}

// resultCounts are the simulated per-layer counts of one run. None of them
// may move under a change that only makes the simulator faster.
func resultCounts(res mosaicsim.Result) map[string]float64 {
	c := map[string]float64{
		"sim.cycles":         float64(res.Cycles),
		"sim.instrs":         float64(res.Instrs),
		"mem.l1_accesses":    float64(res.L1.Accesses),
		"mem.l1_misses":      float64(res.L1.Misses),
		"mem.l2_accesses":    float64(res.L2.Accesses),
		"mem.l2_misses":      float64(res.L2.Misses),
		"mem.llc_accesses":   float64(res.LLC.Accesses),
		"mem.llc_misses":     float64(res.LLC.Misses),
		"mem.mshr_stalls":    float64(res.L1.MSHRStalls + res.L2.MSHRStalls + res.LLC.MSHRStalls),
		"mem.dram_reads":     float64(res.DRAM.Reads),
		"mem.dram_throttled": float64(res.DRAM.Throttled),
	}
	for _, cs := range res.CoreStats {
		c["core.mao_stalls"] += float64(cs.MAOStalls)
		c["core.fu_stalls"] += float64(cs.FUStalls)
		c["core.window_stalls"] += float64(cs.WindowStalls)
		c["core.comm_stalls"] += float64(cs.CommStalls)
		c["core.mispredicts"] += float64(cs.Mispredict)
	}
	return c
}

// simLayers sets the per-layer metrics every workload with simulated results
// has: the simulated counts of one pass and the ratios derived from them.
func simLayers(lc *layerContext) {
	o := lc.out
	for _, name := range []string{
		"soc.stepped_cycles", "soc.skipped_cycles",
		"core.mao_stalls", "core.fu_stalls", "core.window_stalls", "core.comm_stalls", "core.mispredicts",
		"mem.l1_accesses", "mem.mshr_stalls", "mem.dram_reads", "mem.dram_throttled",
	} {
		o.layer(name, lc.count(name))
	}
	o.layer("core.ipc", ratio(lc.count("sim.instrs"), lc.count("sim.cycles")))
	o.layer("mem.l1_miss_rate", ratio(lc.count("mem.l1_misses"), lc.count("mem.l1_accesses")))
	o.layer("mem.l2_miss_rate", ratio(lc.count("mem.l2_misses"), lc.count("mem.l2_accesses")))
	o.layer("mem.llc_miss_rate", ratio(lc.count("mem.llc_misses"), lc.count("mem.llc_accesses")))
	stepped, skipped := lc.count("soc.stepped_cycles"), lc.count("soc.skipped_cycles")
	o.layer("soc.skip_frac", ratio(skipped, stepped+skipped))
}

func (t *timing) layers(ctx context.Context, lc *layerContext) {
	o := lc.out
	simLayers(lc)
	o.layer("cc.compile_o0_s", lc.perSetup("setup/compile"))
	o.layer("ddg.build_s", lc.perSetup("setup/ddg"))
	o.layer("interp.trace_s", lc.perSetup("setup/trace"))
	var traced float64
	for _, op := range t.ops {
		traced += float64(op.traced)
	}
	o.layer("interp.instrs", traced)
	o.layer("interp.mips", ratio(traced/1e6, lc.perSetup("setup/trace")))

	build, run := lc.perPass("build"), lc.perPass("run")
	o.layer("soc.build_s", build)
	o.layer("soc.run_s", run)
	o.layer("soc.ns_per_stepped_cycle", ratio(run*1e9, lc.count("soc.stepped_cycles")))
	o.layer("soc.ns_per_instr", ratio(run*1e9, lc.count("sim.instrs")))
	o.layer("soc.ns_per_mem_access", ratio(run*1e9, lc.count("mem.l1_accesses")))
	// What Session.Run costs beyond the build and the run it wraps: the
	// untraced pass (Session.Run per op) minus the traced build+run spans.
	o.layer("sim.session_overhead_s", lc.untracedPassMedian()-build-run)
	for _, name := range []string{"sim.artifact_hits", "sim.artifact_misses", "sim.artifact_evictions"} {
		o.layer(name, lc.count(name))
	}
	t.probe(ctx, lc)
}
