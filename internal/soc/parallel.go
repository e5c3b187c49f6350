package soc

// Deterministic parallel stepping (the DESIGN.md §5e contract).
//
// The Interleaver's per-iteration work is sharded across a bounded pool of
// persistent workers in two phases. Phase A steps the tiles: each worker
// owns a contiguous range of tile positions and steps them in increasing
// position order, publishing a per-worker watermark after each tile. All
// cross-worker waits target strictly lower tile positions, so the wait
// graph is acyclic: the lowest unfinished tile can always run, and the
// phase always terminates. Phase B shards the memory-hierarchy tick: after
// the serial slice ticks the shared levels (DRAM, LLC), each worker ticks
// the private cache stacks of its owned cores and folds its tiles into the
// per-worker progress/freeze reduction the serial phase joins.
//
// Four ordering rules make the result bit-identical to sequential stepping:
//
//   - Fabric capacity (soc.go sendHasRoom): a sender observes exactly the
//     receiver pops sequential tile order would have shown — the committed
//     epoch count when the receiver steps later this cycle, the live count
//     (after waiting for the receiver's step) when it steps earlier.
//   - Same-cycle delivery (soc.go TryRecv): a zero-transfer-cost message is
//     receivable the cycle it is sent, so the receiver of such a pair reads
//     the committed push count when it steps before its sender (this
//     cycle's pushes and future-send maturations are invisible — on a
//     zero-cost pair an arrival value always equals the cycle it was
//     written, so arrival >= now identifies them) and waits for the
//     sender's step otherwise.
//   - Sync ops: a core whose step may touch shared synchronization state —
//     barrier arrivals/releases or accelerator invocations — first waits
//     for every lower tile position to finish (core.MaySync, a conservative
//     trace-window test). That replicates the sequential prefix those ops
//     observe; tiles without sync ops in flight only touch their own SPSC
//     queues and per-tile shards and run unordered.
//   - Staged coherence commits (mem.Hierarchy): with a directory, a core's
//     AccessAt — directory lookup, cross-core invalidations, recall
//     writebacks — is staged per core during phase A and committed at the
//     serial join in (tile-position, issue-seq) order, the exact total
//     order sequential stepping interleaves them in. Nothing in a core's
//     step reads the state those actions change (results arrive through
//     done callbacks fired by later ticks), so deferral is invisible.
//
// The remaining serial phase — shared-level ticks, staged-access drains,
// epoch commit, horizon jumps — stays on the Run goroutine.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// phaseCmd is one per-cycle dispatch to a worker: the cycle number plus
// which phase to run (tile stepping, or the sharded hierarchy tick).
type phaseCmd struct {
	cycle int64
	tick  bool
}

// pworker is one worker's slot, padded so adjacent watermarks never share a
// cache line.
type pworker struct {
	lo, hi int           // owned tile-position range [lo, hi)
	start  chan phaseCmd // per-cycle dispatch
	active bool          // any-tile-active result of the last step phase
	// tileProg is the running sum of the owned tiles' progress counters,
	// kept from the reading that follows each step. tickProg and frozen are
	// the worker's slice of the per-cycle progress/freeze reduction, computed
	// in the tick phase: tileProg plus the owned private cache stacks'
	// counters, and whether every owned live tile has confirmed a frozen
	// step.
	tileProg uint64
	tickProg uint64
	frozen   bool
	// prog is the worker's watermark: base + pos + 1 after finishing the
	// tile at pos. base is seq*len(tiles), with seq a dense per-phase
	// counter (cycles jump under skipping, so they cannot seed the
	// encoding); a stale value from an earlier phase is always below any
	// current-phase target.
	prog atomicPadded
}

type atomicPadded struct {
	v int64
	_ [7]int64
}

// stepEngine shards one system's tile stepping across workers.
type stepEngine struct {
	s        *System
	maxClock int64
	// Shared with Run's loop (workers touch only their owned indices; the
	// serial phase reads and writes them between joins).
	accum, strides []int64
	idleOK         []bool
	prog           []uint64

	workers []pworker
	owner   []int // tile position -> worker index
	base    int64 // written serially before dispatch, read by workers
	seq     int64
	wg      sync.WaitGroup

	// tickProgress and tickConfirmed are the joined reductions of the last
	// tick phase: the progress sum over every tile and private cache stack
	// (uint64 addition is order-independent, so the sharded sum is
	// bit-identical to the sequential one) and the all-tiles-frozen test.
	tickProgress  uint64
	tickConfirmed bool
}

// startEngine builds and starts the worker pool when parallel stepping is
// requested (System.ParallelEligibility). Every topology is eligible: the
// epoch rules above keep directory-coherent hierarchies and zero-latency
// fabrics bit-identical to sequential stepping, so the only fallback —
// returning nil and leaving Run on the sequential loop — is an effective
// worker count <= 1.
func (s *System) startEngine(accum, strides []int64, idleOK []bool, prog []uint64, maxClock int64) *stepEngine {
	if ok, _ := s.ParallelEligibility(); !ok {
		return nil
	}
	nw := s.StepWorkers
	if nw > len(s.tiles) {
		nw = len(s.tiles)
	}
	e := &stepEngine{
		s:        s,
		maxClock: maxClock,
		accum:    accum,
		strides:  strides,
		idleOK:   idleOK,
		prog:     prog,
		workers:  make([]pworker, nw),
		owner:    make([]int, len(s.tiles)),
	}
	nt := len(s.tiles)
	per, rem := nt/nw, nt%nw
	lo := 0
	for w := range e.workers {
		sz := per
		if w < rem {
			sz++
		}
		e.workers[w] = pworker{lo: lo, hi: lo + sz, start: make(chan phaseCmd)}
		for p := lo; p < lo+sz; p++ {
			e.owner[p] = w
			e.workers[w].tileProg += prog[p]
		}
		lo += sz
	}
	s.Fabric.prepareParallel()
	s.Fabric.engine = e
	if s.Hier != nil && s.Hier.Dir != nil {
		s.Hier.SetCoherenceStaging(true)
	}
	for w := range e.workers {
		go e.run(&e.workers[w])
	}
	return e
}

// stop shuts the workers down and detaches the engine from the fabric and
// the hierarchy.
func (e *stepEngine) stop() {
	for w := range e.workers {
		close(e.workers[w].start)
	}
	e.s.Fabric.engine = nil
	if e.s.Hier != nil {
		e.s.Hier.SetCoherenceStaging(false)
	}
}

// step runs one parallel tile phase for cycle and reports whether any tile
// is still active — exactly the sequential loop's anyActive.
func (e *stepEngine) step(cycle int64) bool {
	e.seq++
	e.s.ParallelPhases++
	e.base = e.seq * int64(len(e.s.tiles))
	e.wg.Add(len(e.workers))
	for w := range e.workers {
		e.workers[w].start <- phaseCmd{cycle: cycle}
	}
	e.wg.Wait()
	active := false
	for w := range e.workers {
		active = active || e.workers[w].active
	}
	return active
}

// tick runs one sharded hierarchy-tick phase: the caller has already ticked
// the shared levels serially; workers tick their owned cores' private
// stacks (shared-level accesses they emit are staged per core) and compute
// their reduction slices. The join drains the staged accesses in core order
// and folds the reductions.
func (e *stepEngine) tick(cycle int64) {
	e.s.Hier.BeginTickStage()
	e.wg.Add(len(e.workers))
	for w := range e.workers {
		e.workers[w].start <- phaseCmd{cycle: cycle, tick: true}
	}
	e.wg.Wait()
	e.s.Hier.DrainTickStage()
	prog := uint64(0)
	conf := true
	for w := range e.workers {
		prog += e.workers[w].tickProg
		conf = conf && e.workers[w].frozen
	}
	e.tickProgress = prog
	e.tickConfirmed = conf
}

// run is one worker's loop: per dispatched cycle, either step the owned
// tile range in position order — mirroring the sequential loop's
// accumulator arithmetic and freeze bracketing, publishing the watermark
// after each position — or tick the owned cores' private cache stacks and
// compute the worker's reduction slice.
func (e *stepEngine) run(w *pworker) {
	for cmd := range w.start {
		if cmd.tick {
			e.runTick(w, cmd.cycle)
			e.wg.Done()
			continue
		}
		cycle := cmd.cycle
		base := e.base
		active := false
		for pos := w.lo; pos < w.hi; pos++ {
			t := e.s.tiles[pos]
			e.accum[pos] += e.strides[pos]
			if e.accum[pos] >= e.maxClock {
				e.accum[pos] -= e.maxClock
				if t.MaySync() {
					// The step may arrive at a barrier, test a release, or
					// invoke an accelerator: give it the sequential prefix.
					e.waitAllBelow(base, pos)
				}
				if t.Step(cycle) {
					active = true
				}
				if np := t.Progress(); np != e.prog[pos] {
					w.tileProg += np - e.prog[pos]
					e.prog[pos] = np
				} else {
					e.idleOK[pos] = true
				}
			} else if !t.Done() {
				active = true
			}
			atomic.StoreInt64(&w.prog.v, base+int64(pos)+1)
		}
		w.active = active
		e.wg.Done()
	}
}

// runTick is one worker's tick phase. Tile position p >= 1 is core p-1
// (position 0 is the accelerator manager, which has no cache stack), so a
// worker ticks exactly the cores whose tiles it stepped — core state, its
// caches, and its completion callbacks stay on one goroutine per cycle.
func (e *stepEngine) runTick(w *pworker, cycle int64) {
	prog := w.tileProg
	frozen := true
	for pos := w.lo; pos < w.hi; pos++ {
		if pos > 0 {
			e.s.Hier.TickCore(pos-1, cycle)
			prog += uint64(e.s.Hier.ProgressCore(pos - 1))
		}
		if !e.idleOK[pos] && !e.s.tiles[pos].Done() {
			frozen = false
		}
	}
	w.tickProg = prog
	w.frozen = frozen
}

// waitCore blocks until the tile owning core id has finished its step this
// phase. Callers only ever wait on lower tile positions.
func (e *stepEngine) waitCore(id int) {
	pos := e.s.tilePos[id]
	w := &e.workers[e.owner[pos]]
	target := e.base + int64(pos) + 1
	for atomic.LoadInt64(&w.prog.v) < target {
		runtime.Gosched()
	}
}

// waitAllBelow blocks until every tile position < pos has finished its step
// this phase (positions the caller's own worker owns are already done by
// program order).
func (e *stepEngine) waitAllBelow(base int64, pos int) {
	for i := range e.workers {
		w := &e.workers[i]
		if w.lo >= pos {
			break
		}
		limit := pos
		if w.hi < limit {
			limit = w.hi
		}
		// Positions [w.lo, limit) are done once the watermark reaches
		// base + limit.
		target := base + int64(limit)
		for atomic.LoadInt64(&w.prog.v) < target {
			runtime.Gosched()
		}
	}
}
