// Package sim is MosaicSim-Go's reusable, cancellable simulation-session
// engine. It owns the paper's full pipeline (§II) as typed, individually
// addressable stages —
//
//	Compile → DDG → Trace → BuildSystem → Run → Report
//
// — behind one Session API, so every driver (the CLI tools, the experiment
// harness, the examples, the benchmarks, and future serving frontends)
// composes the same engine instead of re-wiring the pipeline. Artifacts up
// to the trace are content-keyed and shared through a singleflight Cache;
// systems and runs are per-session. Everything downstream of a Session
// honors context.Context: cancelling a session's context aborts compilation
// waits, returns mid-simulation from soc.System.Run at interleave and
// horizon-jump boundaries, and (through internal/parallel) abandons queued
// sweep legs.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"mosaicsim/internal/config"
	"mosaicsim/internal/core"
	"mosaicsim/internal/dae"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	replaypkg "mosaicsim/internal/replay"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/trace"
	"mosaicsim/internal/workloads"
)

// Stage names one pipeline stage for error attribution and addressing.
type Stage string

// The pipeline stages, in order.
const (
	StageCompile Stage = "compile"
	StageDDG     Stage = "ddg"
	StageTrace   Stage = "trace"
	StageBuild   Stage = "build-system"
	StageRun     Stage = "run"
	StageReport  Stage = "report"
)

// SliceMode selects how a session maps the kernel onto tiles.
type SliceMode int

const (
	// SliceNone runs the kernel SPMD: every tile executes the same kernel.
	SliceNone SliceMode = iota
	// SliceDAE applies the DeSC-style Decoupled Access/Execute pass
	// (§VII-A): even tiles run the access slice, odd tiles the execute
	// slice, in pairs.
	SliceDAE
)

func (m SliceMode) String() string {
	if m == SliceDAE {
		return "dae"
	}
	return "spmd"
}

// StageError attributes a pipeline failure to its stage and kernel. It
// wraps the underlying error, so errors.Is / errors.As see through it
// (e.g. errors.Is(err, context.Canceled) after a cancelled run).
type StageError struct {
	Stage  Stage
	Kernel string
	Err    error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("sim: %s stage of %q: %v", e.Stage, e.Kernel, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// Options configures a Session. Workload is required; the remaining fields
// are needed only by the stages that consume them (e.g. Config may stay nil
// for a session used only up to the Trace stage with explicit Tiles).
type Options struct {
	// Workload is the kernel under simulation: a built-in benchmark or an
	// ad-hoc workloads.Workload composed by the caller.
	Workload *workloads.Workload
	// Scale selects the workload's input size.
	Scale workloads.Scale
	// Tiles is the traced tile count. Zero derives it from the system's tile
	// count. SliceDAE requires an even count (access/execute pairs).
	Tiles int
	// Slicing selects SPMD replication or DAE pair decomposition. A system
	// that declares access/execute roles selects SliceDAE by itself.
	Slicing SliceMode
	// Config describes the simulated system for BuildSystem/Run, in either
	// input spelling; NewSession resolves it once, into the Topology the
	// session works from. Its tile count must match Tiles when both are set.
	Config *config.SystemConfig
	// Topology is the system already resolved (soc.Resolve), for a driver
	// that needed the resolved form before it had a session — the reference
	// clock its accelerator models run at. It takes the place of Config.
	Topology *soc.Topology
	// Accels maps accelerator intrinsics to performance models.
	Accels map[string]soc.AccelModel
	// Limit bounds the run's simulated cycles (0 = soc.DefaultCycleLimit).
	Limit int64
	// DisableCycleSkipping forces the naive cycle-by-cycle Interleaver loop.
	DisableCycleSkipping bool
	// Replay enables timing replay (internal/replay): a full run records its
	// schedule into the cache, and a later Run that the classifier proves
	// would be identical to a recorded one (no delta, inert knobs, or a DRAM
	// budget refit) returns a copy of the recorded Result without building
	// or stepping a system. Anything else falls back to full simulation with
	// the reason in Replay().
	// Recording is skipped under DisableCycleSkipping (those runs exist to
	// validate the stepping engine itself).
	Replay bool
	// Progress, when non-nil, receives in-flight simulation progress from
	// the Run stage (wired to soc.System.OnProgress on every system this
	// session builds). It is called from the simulating goroutine at
	// interleave boundaries; keep it cheap and do your own throttling.
	Progress func(soc.ProgressUpdate)
	// Cache shares pipeline artifacts across sessions; nil uses the
	// process-wide DefaultCache.
	Cache *Cache
}

// Session drives one kernel through the pipeline. Stage methods are
// idempotent and safe for concurrent use; artifacts come from the shared
// cache, while the built system and its result belong to this session.
type Session struct {
	opts  Options
	cache *Cache
	// topo is the resolved system (nil for a session that only traces) and
	// key the session's content key, both fixed at creation.
	topo *soc.Topology
	key  Key

	mu     sync.Mutex
	sys    *soc.System // last-built (and possibly run) system
	res    soc.Result
	ran    bool
	replay ReplayOutcome
}

// ReplayOutcome reports what the replay engine did for the session's last
// Run: whether replay was attempted, whether the run was answered from a
// recorded schedule (and on which proof families), or why it fell back,
// and whether this run recorded a new schedule for later legs. Stepped and
// Skipped are the recorded run's cycle-skipper accounting, since a replayed
// session never builds a live soc.System to read them from.
type ReplayOutcome struct {
	Attempted bool
	Replayed  bool
	Recorded  bool
	Families  []string
	Reason    string
	Stepped   int64
	Skipped   int64
}

// NewSession validates opts and binds a session to its cache. The system
// config is resolved here, once: a bad topology fails at session creation,
// not mid-pipeline, and every later stage works from the resolved form.
func NewSession(opts Options) (*Session, error) {
	if opts.Workload == nil {
		return nil, fmt.Errorf("sim: Options.Workload is required")
	}
	if opts.Tiles < 0 {
		return nil, fmt.Errorf("sim: negative tile count %d", opts.Tiles)
	}
	topo := opts.Topology
	if topo == nil && opts.Config != nil {
		var err error
		if topo, err = soc.Resolve(opts.Config, opts.Slicing == SliceDAE); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if topo != nil {
		if opts.Tiles != 0 && opts.Tiles != len(topo.Tiles) {
			return nil, fmt.Errorf("sim: config %q instantiates %d cores but the session traces %d tiles",
				topo.Name, len(topo.Tiles), opts.Tiles)
		}
		opts.Tiles = len(topo.Tiles)
		opts.Slicing = SliceNone // a topology's roles say how it is sliced
	}
	// The key hashes the role of every traced tile: the topology's, or for a
	// session that only traces the ones its slicing mode implies.
	roles := make([]string, opts.Tiles)
	for i := range roles {
		switch {
		case topo != nil:
			roles[i] = topo.Tiles[i].Role
		case opts.Slicing == SliceDAE:
			roles[i] = config.DAERole(i)
		}
		if roles[i] != "" {
			opts.Slicing = SliceDAE
		}
	}
	if opts.Slicing == SliceDAE && opts.Tiles%2 != 0 {
		return nil, fmt.Errorf("sim: DAE slicing needs an even tile count (access/execute pairs), got %d", opts.Tiles)
	}
	c := opts.Cache
	if c == nil {
		c = DefaultCache
	}
	return &Session{opts: opts, cache: c, topo: topo, key: KeyFor(opts.Workload, opts.Scale, opts.Slicing, roles)}, nil
}

// Key returns the session's content key into the artifact cache, topology
// hash included.
func (s *Session) Key() Key { return s.key }

// Topology returns the resolved system the session simulates (nil for a
// session created without one).
func (s *Session) Topology() *soc.Topology { return s.topo }

// fail wraps err in a StageError unless it already is one (an inner stage
// failed first — keep its attribution).
func (s *Session) fail(st Stage, err error) error {
	var se *StageError
	if ok := asStageError(err, &se); ok {
		return err
	}
	return &StageError{Stage: st, Kernel: s.opts.Workload.Name, Err: err}
}

// Compile runs (or joins) the compile stage: mini-C to verified IR.
func (s *Session) Compile(ctx context.Context) (*ir.Function, error) {
	ctx = orBackground(ctx)
	w := s.opts.Workload
	k := kernelKey{Kernel: w.Name, SrcHash: s.key.SrcHash}
	f, err := single(ctx, s.cache, &s.cache.kernels, k, func() (*ir.Function, error) {
		f, err := w.Kernel()
		if err != nil {
			return nil, err
		}
		if f == nil {
			return nil, fmt.Errorf("workload %s: module has no function %q", w.Name, "kernel")
		}
		return f, nil
	})
	if err != nil {
		return nil, s.fail(StageCompile, err)
	}
	return f, nil
}

// Graph runs the DDG stage: the kernel's static data-dependence graph
// (SliceNone sessions; DAE sessions address their slice graphs via
// Artifact).
func (s *Session) Graph(ctx context.Context) (*ddg.Graph, error) {
	ctx = orBackground(ctx)
	f, err := s.Compile(ctx)
	if err != nil {
		return nil, err
	}
	w := s.opts.Workload
	k := kernelKey{Kernel: w.Name, SrcHash: s.key.SrcHash}
	g, err := single(ctx, s.cache, &s.cache.graphs, k, func() (*ddg.Graph, error) {
		return ddg.Build(f), nil
	})
	if err != nil {
		return nil, s.fail(StageDDG, err)
	}
	return g, nil
}

// slicesOf runs the DAE compiler pass (cached per kernel).
func (s *Session) slicesOf(ctx context.Context) (*sliced, error) {
	f, err := s.Compile(ctx)
	if err != nil {
		return nil, err
	}
	w := s.opts.Workload
	k := kernelKey{Kernel: w.Name, SrcHash: s.key.SrcHash}
	sl, err := single(ctx, s.cache, &s.cache.slices, k, func() (*sliced, error) {
		sls, err := dae.Slice(f)
		if err != nil {
			return nil, err
		}
		return &sliced{slices: sls, access: ddg.Build(sls.Access), execute: ddg.Build(sls.Execute)}, nil
	})
	if err != nil {
		return nil, s.fail(StageDDG, err)
	}
	return sl, nil
}

// Artifact runs the pipeline through the Trace stage, returning the cached
// compile/DDG/trace bundle for this session's key.
func (s *Session) Artifact(ctx context.Context) (*Artifact, error) {
	ctx = orBackground(ctx)
	if s.opts.Tiles <= 0 {
		return nil, s.fail(StageTrace, fmt.Errorf("session has no tile count (set Options.Tiles or Options.Config)"))
	}
	art, err := single(ctx, s.cache, &s.cache.arts, s.key, func() (*Artifact, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch s.opts.Slicing {
		case SliceDAE:
			sl, err := s.slicesOf(ctx)
			if err != nil {
				return nil, err
			}
			f, err := s.Compile(ctx)
			if err != nil {
				return nil, err
			}
			tr := s.adopt(sl.access, sl.execute)
			if tr == nil {
				tr, err = s.opts.Workload.TracePairs(sl.slices.Access, sl.slices.Execute, s.opts.Tiles/2, s.opts.Scale)
				if err != nil {
					return nil, err
				}
			}
			return &Artifact{
				Fn: f, Trace: tr,
				Slices: sl.slices, AccessGraph: sl.access, ExecuteGraph: sl.execute,
			}, nil
		default:
			f, err := s.Compile(ctx)
			if err != nil {
				return nil, err
			}
			g, err := s.Graph(ctx)
			if err != nil {
				return nil, err
			}
			// A trace imported from a store (a restart, or a fleet worker's
			// warm start) satisfies the expensive step; the cheap compile
			// and graph stages above rebuilt deterministically around it.
			tr := s.adopt(g)
			if tr == nil {
				tr, err = s.opts.Workload.TraceWith(f, s.opts.Tiles, s.opts.Scale)
				if err != nil {
					return nil, err
				}
			}
			return &Artifact{Fn: f, Graph: g, Trace: tr}, nil
		}
	})
	if err != nil {
		return nil, s.fail(StageTrace, err)
	}
	return art, nil
}

// adopt returns the trace an import staged under the session's key if it
// replays on the kernel: the session's tile count, and every tile passing
// core's Check against the graph it runs (graphs taken in turn: one for SPMD,
// access then execute for DAE pairs). Otherwise it unstages the trace and
// returns nil, so the caller re-traces: a damaged blob that still decodes
// would panic the core replaying it, or shift its addresses onto the wrong
// instructions, on every run of its key.
func (s *Session) adopt(graphs ...*ddg.Graph) *trace.Trace {
	tr := s.cache.importedTrace(s.key)
	if tr == nil {
		return nil
	}
	ok := len(tr.Tiles) == s.opts.Tiles
	progs := make([]*core.Program, len(graphs))
	for i := 0; ok && i < len(tr.Tiles); i++ {
		k := i % len(graphs)
		if progs[k] == nil {
			progs[k] = core.Lower(graphs[k])
		}
		ok = progs[k].Check(tr.Tiles[i], len(tr.Tiles)) == nil
	}
	if !ok {
		s.cache.dropImported(s.key)
		return nil
	}
	return tr
}

// Trace runs the pipeline through the Trace stage and returns the dynamic
// trace.
func (s *Session) Trace(ctx context.Context) (*trace.Trace, error) {
	art, err := s.Artifact(ctx)
	if err != nil {
		return nil, err
	}
	return art.Trace, nil
}

// BuildSystem runs the BuildSystem stage: a fresh soc.System composed from
// the session's config over the (cached) traced artifact. Each call builds a
// new system, since a run consumes it.
func (s *Session) BuildSystem(ctx context.Context) (*soc.System, error) {
	ctx = orBackground(ctx)
	if s.topo == nil {
		return nil, s.fail(StageBuild, fmt.Errorf("session has no system config (set Options.Config)"))
	}
	art, err := s.Artifact(ctx)
	if err != nil {
		return nil, err
	}
	sys, err := soc.Build(s.topo, soc.Binding{
		Graph:   art.Graph,
		Access:  art.AccessGraph,
		Execute: art.ExecuteGraph,
		Trace:   art.Trace,
	}, s.opts.Accels)
	if err != nil {
		return nil, s.fail(StageBuild, err)
	}
	sys.DisableCycleSkipping = s.opts.DisableCycleSkipping
	sys.OnProgress = s.opts.Progress
	s.mu.Lock()
	s.sys = sys
	s.ran = false
	s.mu.Unlock()
	return sys, nil
}

// canonBufs recycles the buffers Run writes a topology's canonical form
// into: a replay hit reads the bytes and drops them.
var canonBufs = sync.Pool{New: func() any { return new([]byte) }}

// Run drives the full pipeline: it builds a fresh system over the cached
// artifact, simulates it under ctx (and the session's cycle limit), and
// returns the system-wide report. Cancelling ctx mid-simulation returns
// promptly with an error wrapping context.Canceled (or DeadlineExceeded,
// with the effective deadline and cycle limit in the message).
func (s *Session) Run(ctx context.Context) (soc.Result, error) {
	ctx = orBackground(ctx)
	replayOn := s.opts.Replay && s.topo != nil && !s.opts.DisableCycleSkipping
	var canon []byte
	var publish func(*replaypkg.Schedule)
	var out ReplayOutcome
	if replayOn {
		out.Attempted = true
		buf := canonBufs.Get().(*[]byte)
		defer canonBufs.Put(buf)
		var err error
		if canon, err = replaypkg.CanonJSON((*buf)[:0], s.topo); err != nil {
			// A topology with no canonical form (a NaN area) still
			// simulates: take the full path.
			out.Reason = err.Error()
		} else {
			*buf = canon // keep the grown buffer
			// A leg whose schedule another leg is recording waits for it;
			// a leg that finds none records it.
			sched, pub, err := s.cache.awaitSchedule(ctx, s.key, replaypkg.StructHash(canon))
			if err != nil {
				return soc.Result{}, s.fail(StageRun, err)
			}
			if publish = pub; publish != nil {
				defer publish(nil) // releases the slot unless the run published
			}
			if sched != nil {
				dec := replaypkg.Classify(sched, s.topo, canon, s.opts.Accels, s.opts.Limit)
				s.cache.noteReplay(dec)
				if dec.Eligible {
					res := sched.ResultCopy()
					out.Replayed = true
					out.Families = dec.Families
					out.Stepped = sched.Stepped
					out.Skipped = sched.Skipped
					s.mu.Lock()
					s.sys = nil // no live system backs a replayed result
					s.res = res
					s.ran = true
					s.replay = out
					s.mu.Unlock()
					return res, nil
				}
				out.Reason = dec.Reason
			} else {
				out.Reason = "no recorded schedule"
			}
		}
	}
	sys, err := s.BuildSystem(ctx)
	if err != nil {
		return soc.Result{}, err
	}
	var rec *replaypkg.Recorder
	if publish != nil {
		rec = replaypkg.NewRecorder()
		sys.RecordSchedule(rec.RecordInvoke)
	}
	if err := sys.Run(ctx, s.opts.Limit); err != nil {
		return soc.Result{}, s.fail(StageRun, err)
	}
	res := sys.Result()
	if rec != nil {
		publish(rec.Build(s.topo, bytes.Clone(canon), sys, res)) // canon's buffer is reused
		out.Recorded = true
	}
	s.mu.Lock()
	s.res = res
	s.ran = true
	s.replay = out
	s.mu.Unlock()
	return res, nil
}

// Replay reports the replay engine's outcome for the last Run (the zero
// value before any Run, or when Options.Replay is off).
func (s *Session) Replay() ReplayOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replay
}

// Report returns the last completed run's system-wide estimate.
func (s *Session) Report() (soc.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ran {
		return soc.Result{}, s.fail(StageReport, fmt.Errorf("no completed run (call Run first)"))
	}
	return s.res, nil
}

// System returns the session's last-built system (nil before BuildSystem),
// for drivers that report component-level statistics.
func (s *Session) System() *soc.System {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys
}

// orBackground treats a nil ctx as context.Background().
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// asStageError is errors.As specialized to *StageError without forcing every
// caller through the reflection path for the common nil case.
func asStageError(err error, target **StageError) bool {
	for err != nil {
		if se, ok := err.(*StageError); ok {
			*target = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
