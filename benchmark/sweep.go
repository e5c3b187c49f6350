package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mosaicsim"
)

// leg is one point of a design-space sweep.
type leg struct {
	id     string
	kernel string
	cfg    *mosaicsim.SystemConfig
}

// sweep is the sweep_grid workload: the architect's loop. For each kernel a
// handful of structural variants (core kind x L2 size), each followed by
// timing-only deltas of it, all through one shared artifact cache with
// replay on. The first leg of a kernel pays for the trace, a structural leg
// pays a full timing run, a timing-only leg should be answered from the
// recorded schedule.
type sweep struct {
	cfg      runConfig
	scale    mosaicsim.Scale
	legs     []leg
	inflight int
}

// Sweep grid dimensions. The kernels are one compute-bound, one memory-bound
// and one in between; the deltas are the two timing-only knobs the replay
// classifier certifies on them (the mem-class latency is never read; more
// DRAM bandwidth refits the recorded arrivals).
var (
	sweepKernels = []string{"sgemm", "stencil", "lbm"}
	sweepL2KB    = []int{512, 1024, 2048}
)

const sweepDeltas = 12

func sweepGrid(cfg runConfig) []leg {
	rng := cfg.rng()
	var legs []leg
	for _, k := range sweepKernels {
		for _, coreKind := range []string{"ooo", "inorder"} {
			for _, l2 := range sweepL2KB {
				variant := func() *mosaicsim.SystemConfig {
					core := mosaicsim.OutOfOrderCore()
					if coreKind == "inorder" {
						core = mosaicsim.InOrderCore()
					}
					mem := mosaicsim.TableIIMem()
					mem.L2.SizeKB = l2
					return &mosaicsim.SystemConfig{
						Name:  fmt.Sprintf("%s-%s-l2-%d", k, coreKind, l2),
						Cores: []mosaicsim.CoreSpec{{Core: core, Count: 1}},
						Mem:   mem,
					}
				}
				base := variant()
				legs = append(legs, leg{id: base.Name, kernel: k, cfg: base})
				for d := 0; d < sweepDeltas; d++ {
					c := variant()
					c.Cores[0].Core.Latencies = map[string]int64{"mem": int64(1 + rng.Intn(100))}
					c.Mem.DRAM.BandwidthGBs += float64(1 + rng.Intn(72))
					legs = append(legs, leg{id: fmt.Sprintf("%s/d%02d", base.Name, d), kernel: k, cfg: c})
				}
			}
		}
	}
	return legs
}

func newSweep(cfg runConfig) *sweep {
	s := &sweep{cfg: cfg, scale: mosaicsim.ScaleSmall, legs: sweepGrid(cfg), inflight: runtime.NumCPU()}
	if cfg.Smoke {
		s.scale = mosaicsim.ScaleTiny
	}
	return s
}

func (s *sweep) fresh() bool { return false }
func (s *sweep) close()      {}

// setup is a warm-up pass over the same grid at tiny scale. The measured
// passes each start from an empty cache, so there is no state to prepare.
func (s *sweep) setup(ctx context.Context, rec *recorder) error {
	p := s.run(ctx, nil, mosaicsim.ScaleTiny, s.inflight)
	for _, op := range p.Ops {
		if op.Err != nil {
			return fmt.Errorf("%s: %w", op.ID, op.Err)
		}
	}
	return nil
}

func (s *sweep) pass(ctx context.Context, rec *recorder) (passResult, error) {
	return s.run(ctx, rec, s.scale, s.inflight), nil
}

// run sweeps the grid once through a fresh cache with the given number of
// legs in flight. A worker takes a structural variant together with its
// timing-only deltas and runs them in order, so a delta never starts before
// the schedule it replays is recorded; handed out leg by leg, the delta right
// behind each structural leg would race it, run in full, and make the work of
// a pass depend on scheduling luck.
func (s *sweep) run(ctx context.Context, rec *recorder, scale mosaicsim.Scale, inflight int) passResult {
	cache := mosaicsim.NewArtifactCache()
	p := passResult{Ops: make([]opResult, len(s.legs))}
	const chunk = 1 + sweepDeltas
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := range next {
				for i := first; i < first+chunk; i++ {
					p.Ops[i] = s.runLeg(ctx, rec, cache, scale, s.legs[i])
				}
			}
		}()
	}
	for first := 0; first < len(s.legs); first += chunk {
		next <- first
	}
	close(next)
	wg.Wait()
	p.Wall = time.Since(start)
	ac, rc := cache.Counters(), cache.ReplayCounters()
	p.Counts = map[string]float64{
		"sim.artifact_hits":      float64(ac.Hits),
		"sim.artifact_misses":    float64(ac.Misses),
		"sim.artifact_evictions": float64(ac.Evictions),
		"replay.hits":            float64(rc.Hits),
		"replay.fallbacks":       float64(rc.Fallbacks),
		"replay.recorded":        float64(rc.Recorded),
	}
	return p
}

func (s *sweep) runLeg(ctx context.Context, rec *recorder, cache *mosaicsim.ArtifactCache, scale mosaicsim.Scale, l leg) opResult {
	r := opResult{ID: l.id}
	w, err := mosaicsim.ResolveWorkload(l.kernel)
	if err != nil {
		r.Err = err
		return r
	}
	sess, err := mosaicsim.NewSession(mosaicsim.SessionOptions{
		Workload: w, Scale: scale, Config: l.cfg, Cache: cache, Replay: true,
	})
	if err != nil {
		r.Err = err
		return r
	}
	start := time.Now()
	res, err := sess.Run(ctx)
	end := time.Now()
	r.Wall = end.Sub(start)
	if err != nil {
		r.Err = err
		return r
	}
	// How the leg was answered names its span: the replay engine decides
	// inside Session.Run, so the name is known only afterwards.
	out := sess.Replay()
	kind := "leg.full"
	switch {
	case out.Replayed:
		kind = "leg.hit"
	case out.Recorded:
		kind = "leg.record"
	case out.Reason != "" && out.Reason != "no recorded schedule":
		kind = "leg.fallback"
	}
	rec.add(kind, -1, rec.newOp(), start, end)
	r.Stats = statsOf(res)
	r.Counts = resultCounts(res)
	r.Counts["soc.stepped_cycles"] = float64(out.Stepped)
	r.Counts["soc.skipped_cycles"] = float64(out.Skipped)
	if sys := sess.System(); sys != nil {
		r.Counts["soc.stepped_cycles"] = float64(sys.SteppedCycles)
		r.Counts["soc.skipped_cycles"] = float64(sys.SkippedCycles)
	}
	return r
}

func (s *sweep) layers(ctx context.Context, lc *layerContext) {
	o := lc.out
	simLayers(lc)
	for _, name := range []string{
		"sim.artifact_hits", "sim.artifact_misses", "sim.artifact_evictions",
		"replay.hits", "replay.fallbacks", "replay.recorded",
	} {
		o.layer(name, lc.count(name))
	}
	legs := lc.durs
	o.layer("replay.record_leg_s", median(legs["leg.record"]))
	o.layer("replay.hit_leg_ms", median(legs["leg.hit"])*1e3)
	if fb := legs["leg.fallback"]; len(fb) > 0 {
		o.layer("replay.fallback_leg_s", median(fb))
	} else {
		o.na("replay.fallback_leg_s", "no leg fell back")
	}

	// One more pass with a single leg in flight says what leg-level
	// parallelism buys on this host.
	serial := s.run(ctx, nil, s.scale, 1)
	o.layer("sweep.inflight_speedup", ratio(serial.Wall.Seconds(), lc.untracedPassMedian()))
	sweepSpeedupProbe(ctx, lc)
}
