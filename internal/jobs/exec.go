package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"mosaicsim/internal/metrics"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
)

// LeaseSource is where an Executor's lease loop gets its work and reports
// it: a Manager in this process (Manager.Local) or a coordinator over HTTP
// (cluster.Worker).
type LeaseSource interface {
	// Lease blocks until a job is granted, and returns it with the context
	// its run must honour, which ends when the run is to be abandoned (job
	// cancelled, lease lost). A nil lease means no more work will come: ctx
	// ended, or the source is draining.
	Lease(ctx context.Context) (*Lease, context.Context)
	// Event forwards one stage or progress event of l's run. Best effort: a
	// dropped progress tick costs observability, not correctness.
	Event(l *Lease, e Event)
	// Complete reports l's outcome — the report, or the error the run ended
	// with — and releases whatever the source holds for the lease.
	Complete(l *Lease, report json.RawMessage, err error)
}

// Runner executes one leased job under ctx, reporting stage and progress
// events through emit, and returns the job's final JSON report.
type Runner func(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error)

// ExecOptions configures an Executor.
type ExecOptions struct {
	// JobTimeout caps each run's wall-clock time, and also caps any smaller
	// per-spec timeout (0 = unbounded).
	JobTimeout time.Duration
	// Cache is the shared artifact cache (nil builds a private unbounded
	// one). Daemons pass a bounded cache so identical submissions
	// singleflight while memory stays capped.
	Cache *sim.Cache
	// Registry receives the executor's metrics. A standalone daemon passes
	// its manager's, which already has the stage series (its AppendRemote
	// observes them); nil builds a private registry with the stage series on
	// it, observed by the executor itself — a fleet worker's.
	Registry *metrics.Registry
	// Runner executes one lease. Nil selects the sim-backed runner; tests
	// substitute a controllable stub.
	Runner Runner
	// Replay is the default for specs that leave replay unset: answer
	// re-submissions proven identical to a recorded run from its schedule
	// (bit-identical to full simulation).
	Replay bool
}

// Executor runs leases: it owns the shared artifact cache and the series
// that describe execution (in-flight runs, per-tile-kind breakdowns, cache
// and replay counters). It holds no job table — a job's record lives with
// the manager that granted the lease.
type Executor struct {
	opts      ExecOptions
	mInflight *metrics.Gauge
	mStage    stageSeconds          // nil when the manager sharing the registry observes them
	mTiles    map[string]tileSeries // by tile kind
}

// tileSeries is one tile kind's simulated-time breakdown, summed over
// finished jobs.
type tileSeries struct{ active, stall, instrs *metrics.Counter }

// NewExecutor builds an executor and registers its metrics.
func NewExecutor(opts ExecOptions) *Executor {
	if opts.Cache == nil {
		opts.Cache = sim.NewCache()
	}
	x := &Executor{mTiles: map[string]tileSeries{}}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
		x.mStage = newStageSeconds(opts.Registry)
	}
	x.opts = opts
	if x.opts.Runner == nil {
		x.opts.Runner = x.simRun
	}
	reg := opts.Registry
	x.mInflight = reg.Gauge("mosaicd_jobs_inflight", "Simulations currently running in this process.", nil)
	// The registry rejects lazy duplicate registration, so every kind the
	// tile registry can produce is registered up front; kinds registered
	// after startup (custom tile factories) fold into "other".
	for _, kind := range append(soc.TileKinds(), "accel", "other") {
		l := metrics.Labels{"kind": kind}
		x.mTiles[kind] = tileSeries{
			active: reg.Counter("mosaicd_tile_active_cycles_total", "Simulated active cycles by tile kind, summed over finished jobs.", l),
			stall:  reg.Counter("mosaicd_tile_stall_cycles_total", "Simulated stall cycles by tile kind, summed over finished jobs.", l),
			instrs: reg.Counter("mosaicd_tile_instrs_total", "Committed instructions by tile kind, summed over finished jobs.", l),
		}
	}
	reg.CounterFunc("mosaicd_cache_hits_total", "Artifact-cache lookups served from cache (singleflight joins included).", nil,
		func() int64 { return x.opts.Cache.Counters().Hits })
	reg.CounterFunc("mosaicd_cache_misses_total", "Artifact-cache lookups that built.", nil,
		func() int64 { return x.opts.Cache.Counters().Misses })
	reg.CounterFunc("mosaicd_cache_evictions_total", "Artifact-cache LRU evictions.", nil,
		func() int64 { return x.opts.Cache.Counters().Evictions })
	reg.CounterFunc("mosaicd_replay_hits_total", "Runs answered analytically from a recorded timing schedule.", nil,
		func() int64 { return x.opts.Cache.ReplayCounters().Hits })
	reg.CounterFunc("mosaicd_replay_fallbacks_total", "Runs that found a schedule but fell back to full simulation (ineligible delta).", nil,
		func() int64 { return x.opts.Cache.ReplayCounters().Fallbacks })
	reg.CounterFunc("mosaicd_schedules_recorded_total", "Timing schedules captured and published to the cache.", nil,
		func() int64 { return x.opts.Cache.ReplayCounters().Recorded })
	reg.GaugeFunc("mosaicd_replay_hit_ratio", "Fraction of replay-attempted runs answered from a schedule (hits / (hits + fallbacks)).", nil,
		func() float64 {
			rc := x.opts.Cache.ReplayCounters()
			if rc.Hits+rc.Fallbacks == 0 {
				return 0
			}
			return float64(rc.Hits) / float64(rc.Hits+rc.Fallbacks)
		})
	return x
}

// Registry returns the executor's metrics registry (for /metrics handlers).
func (x *Executor) Registry() *metrics.Registry { return x.opts.Registry }

// QueueStats is the health snapshot of a process that only executes: it
// queues nothing, and takes whatever its source leases it.
func (x *Executor) QueueStats() QueueStats {
	return QueueStats{Running: int(x.mInflight.Value()), Accepting: true}
}

// Serve is the lease loop, the one thing that starts runs: it keeps up to
// slots leases from src executing at once and asks for the next only when a
// slot is free. It returns when src has no more work to give and every run
// it started has returned: runs in flight at that point finish and complete
// — a run is abandoned only through the context its lease came with.
func (x *Executor) Serve(ctx context.Context, src LeaseSource, slots int) {
	var wg sync.WaitGroup
	defer wg.Wait()
	free := make(chan struct{}, max(1, slots)) // counting semaphore: one token per lease held
	for {
		// Block on a free slot, not on a timer: a run's return releases one.
		select {
		case free <- struct{}{}:
		case <-ctx.Done():
			return
		}
		l, runCtx := src.Lease(ctx)
		if l == nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-free }()
			x.run(runCtx, src, l)
		}()
	}
}

// run executes one lease and completes it with whatever the attempt returned.
func (x *Executor) run(ctx context.Context, src LeaseSource, l *Lease) {
	report, err := x.attempt(ctx, src, l)
	src.Complete(l, report, err)
}

// attempt runs the runner under min(JobTimeout, the spec's timeout). A panic
// inside the run — the timing core's trace-out-of-sync panics are reachable
// from a damaged artifact blob that still decodes — is that job's failure,
// not the process's: every other lease keeps being served.
func (x *Executor) attempt(ctx context.Context, src LeaseSource, l *Lease) (report json.RawMessage, err error) {
	x.mInflight.Add(1)
	defer x.mInflight.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			log.Printf("jobs: run of %s panicked: %v\n%s", l.JobID, r, debug.Stack())
			report, err = nil, fmt.Errorf("internal error: %v", r)
		}
	}()
	budget := x.opts.JobTimeout
	if d := l.Spec.timeout(); d > 0 && (budget == 0 || d < budget) {
		budget = d
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	return x.opts.Runner(ctx, l, func(e Event) {
		x.mStage.observe(e)
		src.Event(l, e)
	})
}

// simRun is the production Runner: it lowers the spec onto a sim.Session
// bound to the shared cache and runs the pipeline stage by stage, emitting
// stage events (with cache attribution) and throttled progress events. Its
// report is exactly json.Marshal(soc.Result) — byte-identical to what the
// CLI/Session path produces for the same submission.
func (x *Executor) simRun(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error) {
	// Normalized where it was admitted; checked again after the wire.
	spec, err := l.Spec.Normalize()
	if err != nil {
		return nil, err
	}
	opts, err := spec.SessionOptions(x.opts.Cache)
	if err != nil {
		return nil, err
	}
	if spec.Replay == nil {
		opts.Replay = x.opts.Replay
	}
	// Progress events: at most ~10/s regardless of simulation speed, except
	// the terminal update, which always goes out (it carries the run's final
	// cycle position). The hook runs on the simulating goroutine, so
	// lastTick needs no lock.
	var lastTick time.Time
	opts.Progress = func(u soc.ProgressUpdate) {
		now := time.Now()
		if !u.Final && now.Sub(lastTick) < 100*time.Millisecond {
			return
		}
		lastTick = now
		emit(Event{Type: "progress", Cycle: u.Cycle, Stepped: u.Stepped, Skipped: u.Skipped, Final: u.Final})
	}
	s, err := sim.NewSession(opts)
	if err != nil {
		return nil, err
	}
	hit := x.opts.Cache.HasArtifact(s.Key())
	t0 := time.Now()
	if _, err := s.Artifact(ctx); err != nil {
		return nil, err
	}
	emit(Event{Type: "stage", Stage: "artifact", CacheHit: &hit, Seconds: time.Since(t0).Seconds()})

	t0 = time.Now()
	res, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0).Seconds()
	// A replayed run has no live system behind it: stepped/skipped come
	// from the replay outcome and there is no per-tile breakdown to
	// observe (the result is bit-identical to a full run regardless).
	stepped, skipped := s.Replay().Stepped, s.Replay().Skipped
	if sys := s.System(); sys != nil {
		stepped, skipped = sys.SteppedCycles, sys.SkippedCycles
		x.observeTiles(sys.TileBreakdown())
	}
	emit(Event{Type: "stage", Stage: "run", Seconds: d,
		Cycle: res.Cycles, Stepped: stepped, Skipped: skipped})

	t0 = time.Now()
	report, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	emit(Event{Type: "stage", Stage: "report", Seconds: time.Since(t0).Seconds()})
	return report, nil
}

// observeTiles folds one finished run's per-kind breakdown into the tile
// metrics. Kinds outside the startup registration set land in "other".
func (x *Executor) observeTiles(bs []soc.KindBreakdown) {
	for _, b := range bs {
		t, ok := x.mTiles[b.Kind]
		if !ok {
			t = x.mTiles["other"]
		}
		t.active.Add(b.ActiveCycles)
		t.stall.Add(b.StallCycles)
		t.instrs.Add(b.Instrs)
	}
}
