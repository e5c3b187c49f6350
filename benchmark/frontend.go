package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"mosaicsim"
)

// feOp is one cold front-end run: a kernel at an optimization level.
type feOp struct {
	id     string
	kernel string
	level  string
	// dae ops go through the Decoupled Access/Execute slicer and trace an
	// access/execute pair instead of one SPMD tile.
	dae bool
}

// frontend is the frontend_cold workload: every built-in kernel at O0 and at
// O2 goes from source to trace through a fresh artifact cache. It never
// builds a system.
type frontend struct {
	cfg   runConfig
	scale mosaicsim.Scale
	ops   []feOp
}

func newFrontend(cfg runConfig) *frontend {
	f := &frontend{cfg: cfg, scale: mosaicsim.ScaleSmall}
	if cfg.Smoke {
		f.scale = mosaicsim.ScaleTiny
	}
	for _, k := range mosaicsim.WorkloadNames() {
		for _, level := range []string{"O0", "O2"} {
			f.ops = append(f.ops, feOp{
				id: k + "@" + level, kernel: k, level: level,
				dae: k == "projection" || k == "ewsd",
			})
		}
	}
	rng := cfg.rng()
	rng.Shuffle(len(f.ops), func(i, j int) { f.ops[i], f.ops[j] = f.ops[j], f.ops[i] })
	return f
}

func (f *frontend) fresh() bool { return false }
func (f *frontend) close()      {}

// setup is a warm-up: the whole op list once at tiny scale, so the measured
// passes start with the code paged in and the heap grown. There is no state
// to keep, since every op starts from an empty cache.
func (f *frontend) setup(ctx context.Context, rec *recorder) error {
	for _, op := range f.ops {
		if r := f.run(ctx, nil, op, mosaicsim.ScaleTiny); r.Err != nil {
			return fmt.Errorf("%s: %w", op.id, r.Err)
		}
	}
	return nil
}

func (f *frontend) pass(ctx context.Context, rec *recorder) (passResult, error) {
	var p passResult
	start := time.Now()
	for _, op := range f.ops {
		p.Ops = append(p.Ops, f.run(ctx, rec, op, f.scale))
	}
	p.Wall = time.Since(start)
	return p, nil
}

func (f *frontend) run(ctx context.Context, rec *recorder, op feOp, scale mosaicsim.Scale) opResult {
	r := opResult{ID: op.id}
	base, err := mosaicsim.ResolveWorkload(op.kernel)
	if err != nil {
		r.Err = err
		return r
	}
	opt, err := mosaicsim.ParseOptConfig(op.level, "", 0)
	if err != nil {
		r.Err = err
		return r
	}
	opts := mosaicsim.SessionOptions{
		Workload: base.WithOpt(opt), Scale: scale, Tiles: 1,
		Cache: mosaicsim.NewArtifactCache(),
	}
	if op.dae {
		opts.Tiles, opts.Slicing = 2, mosaicsim.SliceDAE
	}
	s, err := mosaicsim.NewSession(opts)
	if err != nil {
		r.Err = err
		return r
	}

	start := time.Now()
	id := rec.newOp()
	root := rec.begin("op", -1, id)
	var fn *mosaicsim.Function
	var tr *mosaicsim.Trace
	var nodes int
	err = rec.timed("compile@"+op.level, root, id, func() error { fn, err = s.Compile(ctx); return err })
	if err == nil {
		err = rec.timed("ddg", root, id, func() error {
			g, err := s.Graph(ctx)
			if err == nil {
				nodes = g.Stats().Nodes
			}
			return err
		})
	}
	if err == nil && op.dae && rec != nil {
		// The session slices inside its trace stage; a traced run slices
		// once more here, on its own, so the slicer has a span to itself.
		err = rec.timed("dae.slice", root, id, func() error {
			_, _, err := mosaicsim.Decouple(&mosaicsim.Kernel{Fn: fn})
			return err
		})
	}
	if err == nil {
		err = rec.timed("trace", root, id, func() error { tr, err = s.Trace(ctx); return err })
	}
	var encoded int64
	if err == nil && rec != nil {
		err = rec.timed("trace.encode", root, id, func() error { encoded, err = tr.WriteTo(io.Discard); return err })
	}
	rec.end(root)
	r.Wall = time.Since(start)
	if err != nil {
		r.Err = err
		return r
	}
	r.Stats = opStats{Instrs: tr.TotalDynInstrs(), DDGNodes: int64(nodes), StaticInstrs: int64(fn.NumInstrs())}
	r.Counts = map[string]float64{
		"interp.instrs":                float64(r.Stats.Instrs),
		"ddg.nodes":                    float64(nodes),
		"ir.static_instrs@" + op.level: float64(fn.NumInstrs()),
		"trace.bytes":                  float64(encoded),
	}
	return r
}

func (f *frontend) layers(ctx context.Context, lc *layerContext) {
	o := lc.out
	o.layer("cc.compile_o0_s", lc.perPass("compile@O0"))
	o.layer("cc.compile_o2_s", lc.perPass("compile@O2"))
	o.layer("ir.o2_static_instr_ratio", ratio(lc.count("ir.static_instrs@O2"), lc.count("ir.static_instrs@O0")))
	o.layer("ddg.build_s", lc.perPass("ddg"))
	o.layer("ddg.nodes", lc.count("ddg.nodes"))
	o.layer("dae.slice_s", lc.perPass("dae.slice"))
	o.layer("interp.trace_s", lc.perPass("trace"))
	o.layer("interp.instrs", lc.count("interp.instrs"))
	o.layer("interp.mips", ratio(lc.count("interp.instrs")/1e6, lc.perPass("trace")))
	o.layer("trace.encode_s", lc.perPass("trace.encode"))
	o.layer("trace.bytes_per_instr", ratio(lc.count("trace.bytes"), lc.count("interp.instrs")))
}
