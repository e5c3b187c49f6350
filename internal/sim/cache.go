package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sync"

	"mosaicsim/internal/dae"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/replay"
	"mosaicsim/internal/trace"
	"mosaicsim/internal/workloads"
)

// Key identifies one cached pipeline artifact by content: the kernel's name
// and source hash, the workload scale, the traced tile count, the slicing
// mode, and the topology hash. Two sessions asking for the same key share
// one compilation and one tracing run no matter which driver they belong to.
type Key struct {
	Kernel  string
	SrcHash uint64
	Scale   workloads.Scale
	Tiles   int
	Mode    SliceMode
	// Topo hashes the per-tile role sequence — the trace-relevant
	// projection of the topology. Deliberately excluded: core kinds,
	// clocks, memory, NoC — none of them affect the traced artifact, so
	// sessions over different microarchitectures keep sharing traces.
	Topo uint64
}

// KeyFor builds the artifact cache key for a per-tile role sequence ("" is
// SPMD), one entry per traced tile. SrcHash covers both the kernel source and
// the canonical hash of the workload's optimization config, so the same
// source compiled at different opt levels (or pass lists, or unroll factors)
// yields distinct keys across every cache layer — compiled kernels, DDGs,
// traces, and recorded replay schedules never alias across opt levels; a
// replay lookup under a different opt level misses and falls back to a full
// run with a declared reason.
func KeyFor(w *workloads.Workload, scale workloads.Scale, mode SliceMode, roles []string) Key {
	topo := fnv.New64a()
	for _, r := range roles {
		topo.Write([]byte(r))
		topo.Write([]byte{0})
	}
	return Key{Kernel: w.Name, SrcHash: srcHash(w), Scale: scale, Tiles: len(roles), Mode: mode, Topo: topo.Sum64()}
}

// srcHash hashes a workload's kernel source and optimization config.
func srcHash(w *workloads.Workload) uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.Src))
	var opt [8]byte
	binary.LittleEndian.PutUint64(opt[:], w.Opt.Hash())
	h.Write(opt[:])
	return h.Sum64()
}

// schedKey identifies one recorded timing schedule: the traced artifact's
// key plus the structural hash of the system configuration it ran under
// (replay.StructHash — timing-only knob deltas hash equal, so a sweep leg
// finds the schedule; structural deltas hash differently, so they miss and
// fall back to full simulation by construction).
type schedKey struct {
	Key
	Struct uint64
}

// kernelKey identifies a compiled kernel (and its DAE slices) independent of
// scale and tile count.
type kernelKey struct {
	Kernel  string
	SrcHash uint64
}

// Artifact bundles the cacheable outputs of the Compile → DDG → Trace
// stages. SPMD artifacts fill Fn/Graph/Trace; DAE artifacts additionally
// carry the access/execute slices and their graphs (Graph is the unsliced
// kernel's).
type Artifact struct {
	Fn    *ir.Function
	Graph *ddg.Graph
	Trace *trace.Trace

	Slices       *dae.Slices
	AccessGraph  *ddg.Graph
	ExecuteGraph *ddg.Graph
}

// sliced is the cached result of the DAE compiler pass on one kernel.
type sliced struct {
	slices  *dae.Slices
	access  *ddg.Graph
	execute *ddg.Graph
}

// flight is one singleflight slot: the first caller builds, everyone else
// waits on done. A slot that finished with a context error is evicted so the
// cancellation of one session never poisons the cache for the others.
// completed is guarded by the owning Cache's mutex and marks the slot as
// holding a final value — only completed slots are LRU-evictable, since an
// in-flight slot still has joiners arriving through the map.
type flight[T any] struct {
	done      chan struct{}
	val       T
	err       error
	completed bool
}

// layer is one content-keyed singleflight map plus its LRU bookkeeping.
// order holds keys from least- to most-recently used; it is maintained only
// while the owning cache is bounded-or-instrumented, which every cache is,
// and its O(n) touch is fine at the entry counts a cap implies (hundreds).
type layer[K comparable, T any] struct {
	m     map[K]*flight[T]
	order []K
}

func newLayer[K comparable, T any]() layer[K, T] {
	return layer[K, T]{m: map[K]*flight[T]{}}
}

// touch moves key to the most-recently-used end.
func (l *layer[K, T]) touch(key K) {
	for i, k := range l.order {
		if k == key {
			copy(l.order[i:], l.order[i+1:])
			l.order[len(l.order)-1] = key
			return
		}
	}
	l.order = append(l.order, key)
}

// remove drops key from the map and the LRU order.
func (l *layer[K, T]) remove(key K) {
	delete(l.m, key)
	for i, k := range l.order {
		if k == key {
			l.order = append(l.order[:i], l.order[i+1:]...)
			return
		}
	}
}

// evictOver drops least-recently-used completed entries until the layer is
// within max entries, bumping evicted once per drop. In-flight entries are
// skipped: their builders and joiners still reach them through the map.
func (l *layer[K, T]) evictOver(max int, evicted *int64) {
	if max <= 0 {
		return
	}
	for i := 0; len(l.m) > max && i < len(l.order); {
		key := l.order[i]
		if f := l.m[key]; f != nil && f.completed {
			l.remove(key)
			*evicted++
			continue // order shifted down; re-check index i
		}
		i++
	}
}

// CacheCounters is a point-in-time snapshot of a cache's lookup and
// eviction activity. Hits include singleflight joins of in-flight builds —
// a deduplicated build is exactly the work a hit saves.
type CacheCounters struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is the engine's content-keyed artifact store. It unifies what used
// to be three private caches — the experiment runner's trace and DAE caches
// and the workload suite's per-instance compile singleflight — behind one
// concurrency-safe, context-aware singleflight per layer (compiled kernels,
// kernel graphs, DAE slices, traced artifacts).
//
// A cache is unbounded by default (the right shape for one-shot CLI sweeps
// over a finite workload list). Long-running daemons call SetMaxEntries to
// bound each layer with LRU eviction so artifact memory cannot grow without
// limit; singleflight semantics are unchanged — an evicted key simply
// rebuilds on next use.
type Cache struct {
	mu      sync.Mutex
	max     int // per-layer entry cap; 0 = unbounded
	hits    int64
	misses  int64
	evicted int64

	replay ReplayCounters

	kernels layer[kernelKey, *ir.Function]
	graphs  layer[kernelKey, *ddg.Graph]
	slices  layer[kernelKey, *sliced]
	arts    layer[Key, *Artifact]
	scheds  layer[schedKey, *replay.Schedule]

	// imported stages traces restored from a store (ImportArtifact) for
	// lazy adoption by Artifact builds; see persist.go.
	imported map[Key]*trace.Trace
}

// NewCache builds an empty, unbounded cache.
func NewCache() *Cache {
	return &Cache{
		kernels: newLayer[kernelKey, *ir.Function](),
		graphs:  newLayer[kernelKey, *ddg.Graph](),
		slices:  newLayer[kernelKey, *sliced](),
		arts:    newLayer[Key, *Artifact](),
		scheds:  newLayer[schedKey, *replay.Schedule](),
	}
}

// SetMaxEntries bounds every layer of the cache at n entries, evicting
// least-recently-used completed entries beyond it (n <= 0 restores the
// unbounded default). The traced-artifact layer dominates memory — traces
// are the large artifact — but the kernel-level layers obey the same cap so
// no layer grows without limit.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = n
	if n > 0 {
		c.kernels.evictOver(n, &c.evicted)
		c.graphs.evictOver(n, &c.evicted)
		c.slices.evictOver(n, &c.evicted)
		c.arts.evictOver(n, &c.evicted)
		c.scheds.evictOver(n, &c.evicted)
	}
}

// Counters returns a snapshot of the cache's hit/miss/eviction counters.
func (c *Cache) Counters() CacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{Hits: c.hits, Misses: c.misses, Evictions: c.evicted}
}

// ReplayCounters is a point-in-time snapshot of the cache's schedule-replay
// activity: Hits counts runs answered with a copy of a recorded schedule's Result,
// Fallbacks counts runs that found a schedule but whose config delta the
// classifier declared ineligible (full simulation ran instead), and Recorded
// counts schedules captured and published. Cold runs with no schedule under
// their key count in none of the three. Identical, InertKnob and DRAMRefit
// count hits by proof family, a hit once under each family it rests on.
type ReplayCounters struct {
	Hits      int64
	Fallbacks int64
	Recorded  int64

	Identical int64
	InertKnob int64
	DRAMRefit int64
}

// ReplayCounters returns a snapshot of the schedule-replay counters.
func (c *Cache) ReplayCounters() ReplayCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replay
}

// noteReplay records the outcome of one replay attempt that found a
// schedule: a hit on the decision's families, or a fallback.
func (c *Cache) noteReplay(dec replay.Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !dec.Eligible {
		c.replay.Fallbacks++
		return
	}
	c.replay.Hits++
	for _, f := range dec.Families {
		switch f {
		case "identical":
			c.replay.Identical++
		case "inert-knob":
			c.replay.InertKnob++
		case "dram-refit":
			c.replay.DRAMRefit++
		}
	}
}

// awaitSchedule returns the schedule recorded under (key, structHash),
// waiting while another leg records it; a waiter whose ctx ends returns its
// error at once. With none resident or in flight it claims the slot instead
// and returns publish: the caller runs in full, then publishes its schedule,
// or nil to release the slot when the run failed, so that one waiter records
// in its place. Only publish's first call counts. Recording rides along a
// full simulation, so unlike single the slot holds no build function.
func (c *Cache) awaitSchedule(ctx context.Context, key Key, structHash uint64) (*replay.Schedule, func(*replay.Schedule), error) {
	sk := schedKey{Key: key, Struct: structHash}
	for {
		c.mu.Lock()
		f, ok := c.scheds.m[sk]
		if !ok {
			f = &flight[*replay.Schedule]{done: make(chan struct{})}
			c.scheds.m[sk] = f
			c.scheds.touch(sk)
			c.mu.Unlock()
			settled := false
			return nil, func(s *replay.Schedule) {
				if !settled {
					settled = true
					c.settleSchedule(sk, f, s)
				}
			}, nil
		}
		c.scheds.touch(sk)
		completed := f.completed
		c.mu.Unlock()
		if completed {
			return f.val, nil, nil
		}
		select {
		case <-f.done:
			if f.val != nil {
				return f.val, nil, nil
			}
			// Released: the recording leg failed. Claim or join anew.
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// settleSchedule completes the claimed slot f with s, counted as Recorded,
// or with s nil removes it, and wakes its waiters.
func (c *Cache) settleSchedule(sk schedKey, f *flight[*replay.Schedule], s *replay.Schedule) {
	c.mu.Lock()
	if s == nil {
		// Remove before closing done: a waiter that wakes and retries must
		// not find this dead slot still in the map.
		c.scheds.remove(sk)
	} else {
		f.val, f.completed = s, true
		c.replay.Recorded++
		c.scheds.evictOver(c.max, &c.evicted)
	}
	c.mu.Unlock()
	close(f.done)
}

// putSchedule installs an imported schedule unless one is resident or in
// flight under (key, structHash). It does not count in Recorded: an import
// restores prior work, it does not capture new work.
func (c *Cache) putSchedule(key Key, structHash uint64, s *replay.Schedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sk := schedKey{Key: key, Struct: structHash}
	if _, ok := c.scheds.m[sk]; ok {
		return
	}
	done := make(chan struct{})
	close(done)
	c.scheds.m[sk] = &flight[*replay.Schedule]{done: done, val: s, completed: true}
	c.scheds.touch(sk)
	c.scheds.evictOver(c.max, &c.evicted)
}

// HasArtifact reports whether the traced artifact for key is resident and
// completed. It is a peek — it neither counts as a lookup nor refreshes the
// entry's LRU position — so callers can attribute an upcoming stage as a
// hit or miss without disturbing the cache.
func (c *Cache) HasArtifact(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.arts.m[key]
	return ok && f.completed && f.err == nil
}

// DefaultCache is the process-wide artifact cache sessions use unless their
// options name another: every driver in one process (CLI sweeps, examples,
// benchmarks) shares compilations and traces through it.
var DefaultCache = NewCache()

// isCtxErr reports whether err came from a cancelled or expired context.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// single is the context-aware singleflight: the first caller for key runs
// build; concurrent callers block until it finishes (or their own ctx is
// cancelled) and share the result. Results are cached until evicted, except
// context errors, which evict the slot immediately so the next caller
// retries.
func single[K comparable, T any](ctx context.Context, c *Cache, l *layer[K, T], key K, build func() (T, error)) (T, error) {
	for {
		c.mu.Lock()
		f, ok := l.m[key]
		if !ok {
			f = &flight[T]{done: make(chan struct{})}
			l.m[key] = f
			l.touch(key)
			c.misses++
			c.mu.Unlock()
			f.val, f.err = build()
			c.mu.Lock()
			f.completed = true
			if f.err != nil && isCtxErr(f.err) {
				// Evict before closing done: a joiner that wakes and retries
				// must not find this dead slot still in the map.
				if l.m[key] == f {
					l.remove(key)
				}
			} else {
				l.evictOver(c.max, &c.evicted)
			}
			c.mu.Unlock()
			close(f.done)
			return f.val, f.err
		}
		c.hits++
		l.touch(key)
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil && isCtxErr(f.err) {
				// The builder's context died, not ours: retry unless ours
				// is gone too.
				if ctx.Err() != nil {
					var zero T
					return zero, ctx.Err()
				}
				continue
			}
			return f.val, f.err
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}
