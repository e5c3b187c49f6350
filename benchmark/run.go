package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// results collects what one run reports.
type results struct {
	Attempted int
	Failed    int
	// Values holds every metric the run produced, by name.
	Values map[string]float64
	// Samples says how many samples stand behind a value and how they
	// spread, where the value is a median.
	Samples map[string]summary
	// NA holds the reason a per-layer metric does not apply to this
	// workload or could not be measured.
	NA map[string]string
	// Failures holds the first few failed ops, for the readable output.
	Failures []string
}

func newResults() *results {
	return &results{Values: map[string]float64{}, Samples: map[string]summary{}, NA: map[string]string{}}
}

// layer sets a per-layer metric. A name spec.go does not list is a typo in
// the benchmark itself, which is worth a panic.
func (r *results) layer(name string, v float64) {
	mustBeLayer(name)
	r.Values[name] = v
}

// na says why a per-layer metric has no value on this workload.
func (r *results) na(name, reason string) {
	mustBeLayer(name)
	r.NA[name] = reason
}

func mustBeLayer(name string) {
	for _, m := range perLayer {
		if m.Name == name {
			return
		}
	}
	panic("benchmark: per-layer metric " + name + " is not in spec.go")
}

// sampled sets a metric to the median of its samples.
func (r *results) sampled(name string, xs []float64) {
	s := summarize(xs)
	r.Values[name] = s.Median
	r.Samples[name] = s
}

func (r *results) fail(id string, err error) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", id, err))
	}
}

// perPass is the summed duration (seconds) of the spans with this name,
// divided over the traced passes.
func (lc *layerContext) perPass(name string) float64 {
	return ratio(sum(lc.durs[name]), float64(len(lc.traced)))
}

// perSetup is the same over the setups a traced run recorded.
func (lc *layerContext) perSetup(name string) float64 {
	return ratio(sum(lc.durs[name]), float64(lc.setups))
}

func (lc *layerContext) untracedPassMedian() float64 { return medianWall(lc.untraced) }

func medianWall(passes []passResult) float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, p.Wall.Seconds())
	}
	return median(xs)
}

// traceOverhead is what tracing costs: how much longer the median traced
// pass takes than the median untraced pass of the same run, as a share of
// the latter.
func traceOverhead(untraced, traced []passResult) float64 {
	base := medianWall(untraced)
	return ratio(medianWall(traced)-base, base)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Run shape: how many fresh setups a workload whose passes can share one
// still gets (so setup_s is a median, not a single reading), the fewest
// passes a run makes, and the wall-clock ceiling that keeps a run on a slow
// host inside the driver's per-run limit.
const (
	setupSamples = 3
	minPasses    = 3
	runCeiling   = 150 * time.Second
)

// runWorkload is one run: setups and passes of one workload for the
// configured time, verification of every op, and the metrics.
func runWorkload(ctx context.Context, cfg runConfig, def workloadDef, exp *expected, host hostInfo, log io.Writer) (*results, error) {
	out := newResults()
	w := def.New(cfg)
	defer w.close()

	var rec *recorder
	need := minPasses
	if cfg.Trace {
		rec = newRecorder()
	}
	if cfg.Smoke {
		need = 1
	}
	if cfg.Trace {
		need = max(need, 2) // at least one pass of each kind
	}

	var (
		setups        []float64
		traced, plain []passResult
		measured      time.Duration
		allocMB       []float64 // per untraced pass, per op
		ms0, ms1      runtime.MemStats
		began         = time.Now()
		reference     = map[string]opStats{} // first result seen per op id
	)
	for i := 0; i < need || (measured.Seconds() < cfg.Seconds && time.Since(began) < runCeiling && !cfg.Smoke); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i == 0 || w.fresh() || (len(setups) < setupSamples && !cfg.Smoke) {
			w.close()
			start := time.Now()
			if err := w.setup(ctx, rec); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		// A traced run alternates untraced and traced passes, untraced
		// first, so drift on the host hits both kinds alike.
		passRec := rec
		if i%2 == 0 {
			passRec = nil
		}
		runtime.ReadMemStats(&ms0)
		p, err := w.pass(ctx, passRec)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		runtime.ReadMemStats(&ms1)
		measured += p.Wall
		if passRec != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
			allocMB = append(allocMB, ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), float64(len(p.Ops))))
		}
		for _, op := range p.Ops {
			out.Attempted++
			if op.Err != nil {
				out.fail(op.ID, op.Err)
				continue
			}
			if err := verify(cfg, exp, reference, op); err != nil {
				out.fail(op.ID, err)
			}
		}
	}
	if cfg.WriteExpected {
		exp.set(cfg.Workload, reference)
	}

	// End-to-end metrics, from the untraced passes.
	var opsPerS, mips, rss, opP50 []float64
	for _, p := range plain {
		good, instrs := 0, int64(0)
		var opMS []float64
		for _, op := range p.Ops {
			if op.Err == nil {
				good++
				instrs += op.Stats.Instrs
				opMS = append(opMS, op.Wall.Seconds()*1e3)
			}
		}
		opsPerS = append(opsPerS, float64(good)/p.Wall.Seconds())
		mips = append(mips, float64(instrs)/1e6/p.Wall.Seconds())
		// The median op of this pass. Pooling the ops of all passes first
		// would, for a pass of four unlike kernels, put the median on the
		// slowest run of one kernel and the fastest of the next.
		opP50 = append(opP50, median(opMS))
		if p.PeakRSSMB > 0 {
			rss = append(rss, p.PeakRSSMB)
		}
	}
	out.sampled("setup_s", setups)
	out.sampled("ops_per_s", opsPerS)
	out.sampled("op_p50_ms", opP50)
	out.sampled("sim_mips", mips)
	// Allocation noise is one-sided: a pool the collector has emptied (the
	// trace generator's 64 MB memory images sit in one) is refilled at the
	// next use, and whether that happens inside a pass is luck. The least
	// any pass allocated is what the code needs.
	out.sampled("alloc_mb_per_op", allocMB)
	out.Values["alloc_mb_per_op"] = out.Samples["alloc_mb_per_op"].Min

	if cfg.Trace {
		spans := rec.snapshot()
		lc := &layerContext{cfg: cfg, traced: traced, untraced: plain, durs: byName(spans), out: out, setups: len(setups)}
		w.layers(ctx, lc)
		out.layer("bench.trace_overhead_frac", traceOverhead(plain, traced))
		if len(rss) == 0 {
			// The simulating process is this one.
			if mb, ok := peakRSSMB(os.Getpid()); ok {
				rss = []float64{mb}
			}
		}
		out.layer("bench.peak_rss_mb", median(rss))
		for _, m := range perLayer {
			if _, ok := out.Values[m.Name]; !ok {
				if _, why := out.NA[m.Name]; !why {
					out.na(m.Name, "layer not exercised by this workload")
				}
				out.Values[m.Name] = 0
			}
		}
		lo, hi := selfCoverage(spans)
		fmt.Fprintf(log, "spans: %d recorded; self times sum to %.4f..%.4f of their op's wall time\n", len(spans), lo, hi)
		if !cfg.Smoke {
			path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(path, host, spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(log, "spans: written to %s\n", path)
		}
	}
	fmt.Fprintf(log, "passes: %d untraced, %d traced, %d setups; measured %.2fs, whole run %.2fs\n",
		len(plain), len(traced), len(setups), measured.Seconds(), time.Since(began).Seconds())
	return out, nil
}

// verify checks one op's simulated statistics: against the committed
// expectations when the seed is the default one, and in any case against
// the first result the same op produced in this run.
func verify(cfg runConfig, exp *expected, reference map[string]opStats, op opResult) error {
	if first, ok := reference[op.ID]; !ok {
		reference[op.ID] = op.Stats
	} else if first != op.Stats {
		return fmt.Errorf("result changed between runs of the same op: %+v, then %+v", first, op.Stats)
	}
	if cfg.Seed != defaultSeed || cfg.Smoke || cfg.WriteExpected {
		return nil
	}
	want, ok := exp.get(cfg.Workload, op.ID)
	if !ok {
		return fmt.Errorf("no expected result recorded for seed %d (run -write-expected)", defaultSeed)
	}
	if want != op.Stats {
		return fmt.Errorf("simulated statistics differ from expected/seed1.json: got %+v, want %+v", op.Stats, want)
	}
	return nil
}

// report prints one run: readable lines on w, then the one-line JSON object
// the driver reads as the last line of standard output.
func report(w io.Writer, cfg runConfig, out *results) error {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", cfg.Workload, cfg.Seed, cfg.Trace)
	for _, m := range defs {
		v := out.Values[m.Name]
		line := fmt.Sprintf("  %-28s %14.6g %-6s", m.Name, v, m.Unit)
		if why, ok := out.NA[m.Name]; ok {
			line = fmt.Sprintf("  %-28s %14s %-6s %s", m.Name, "n/a", m.Unit, why)
		} else if s, ok := out.Samples[m.Name]; ok {
			line += fmt.Sprintf(" n=%d min=%.6g max=%.6g", s.N, s.Min, s.Max)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  ops: %d attempted, %d failed (failed_frac %.4g)\n", out.Attempted, out.Failed,
		ratio(float64(out.Failed), float64(out.Attempted)))
	for _, f := range out.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}

	res := runResult{
		Correct:   out.Failed == 0 && out.Attempted > 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{out.Values[m.Name], m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
