// Package soc implements MosaicSim-Go's Interleaver (§II): it composes tiles
// (cores, with the pre-RTL accelerator tile among their presets) and the
// accelerator models they invoke, advances the cores cycle by cycle with
// per-tile clock ratios, carries inter-tile messages through bounded
// communication buffers, and drives the shared memory hierarchy —
// "combining module behaviors into system-wide performance estimates".
package soc

import (
	"context"
	"errors"
	"fmt"

	"mosaicsim/internal/config"
	"mosaicsim/internal/core"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/mem"
	"mosaicsim/internal/trace"
)

// AccelResult is what an accelerator performance model reports for one
// invocation (§IV-A): clock cycles, bytes moved to/from memory, and average
// energy.
type AccelResult struct {
	Cycles   int64
	Bytes    int64
	EnergyPJ float64
}

// AccelModel is a pluggable accelerator performance model. Invoke receives the
// traced invocation parameters and the number of already-outstanding
// invocations of the same accelerator, so models can scale execution under
// memory-bandwidth sharing (§IV-B).
type AccelModel interface {
	Invoke(params []int64, concurrent int) (AccelResult, error)
}

// TileSpec instantiates one tile: its core configuration, the kernel DDG it
// replays, and its dynamic trace. DAE systems give different tiles different
// kernels (§VII-A). Kind labels the tile for per-kind breakdowns; empty
// defaults to the core config's name.
type TileSpec struct {
	Cfg   config.CoreConfig
	Kind  string
	Graph *ddg.Graph
	TT    *trace.TileTrace
}

// Fabric is the Interleaver's message transport: bounded per-(src,dst) FIFOs
// with a fixed transfer latency (§II-C; Table II communication buffers).
// With a NoC configured, transfers additionally pay per-hop latency for the
// Manhattan distance between the tiles on a 2D mesh — the "message module"
// the paper lists as the natural extension of the tile model (§V-A).
type Fabric struct {
	Capacity int
	Latency  int64
	// Tiles is the system's tile count.
	Tiles int
	// MeshWidth > 0 arranges tiles on a 2D mesh of that width; HopCycles is
	// the per-hop link latency.
	MeshWidth int
	HopCycles int64
	// Slots pins tile i to mesh slot Slots[i] (row-major); nil places tiles
	// row-major by tile ID.
	Slots []int

	queues map[[2]int]*msgQueue

	arrivals []int64 // per-tile barrier arrival counts
	// participants marks the tiles that execute barrier ops.
	participants []bool

	sends int64
	recvs int64
	hops  int64
}

// transferCost returns the fabric latency from src to dst — including NoC
// hops when a mesh is configured — and the hop count. It is a pure query:
// hop accounting is charged by the successful-send paths, so horizon probes
// and rejected sends never mutate statistics.
func (f *Fabric) transferCost(src, dst int) (lat, hops int64) {
	lat = f.Latency
	if f.MeshWidth <= 0 {
		return lat, 0
	}
	if f.Slots != nil {
		if src >= len(f.Slots) || dst >= len(f.Slots) {
			panic(fmt.Sprintf("soc: fabric Slots pins %d tiles but tile %d sends to tile %d (Fabric.Validate rejects this before a run)",
				len(f.Slots), src, dst))
		}
		src, dst = f.Slots[src], f.Slots[dst]
	}
	sx, sy := src%f.MeshWidth, src/f.MeshWidth
	dx, dy := dst%f.MeshWidth, dst/f.MeshWidth
	hops = int64(abs(sx-dx) + abs(sy-dy))
	return lat + hops*f.HopCycles, hops
}

// Validate checks the fabric's NoC geometry up front: a short, off-grid, or
// duplicated Slots table is reported as a construction-time error (the same
// rule topology.Build applies to declarative configs) instead of an opaque
// index panic mid-run. System.Run calls it before the first cycle.
func (f *Fabric) Validate() error {
	if f.MeshWidth <= 0 {
		if f.Slots != nil {
			return fmt.Errorf("soc: fabric pins %d mesh slots but configures no mesh (MeshWidth = %d)", len(f.Slots), f.MeshWidth)
		}
		return nil
	}
	if f.Slots == nil {
		if f.Tiles > f.MeshWidth*f.MeshWidth {
			return fmt.Errorf("soc: a %dx%d mesh cannot place %d tiles", f.MeshWidth, f.MeshWidth, f.Tiles)
		}
		return nil
	}
	if f.Tiles > len(f.Slots) {
		return fmt.Errorf("soc: fabric has %d tiles but Slots pins only %d; every tile needs a mesh slot", f.Tiles, len(f.Slots))
	}
	seen := map[int]int{}
	for i, s := range f.Slots {
		if s < 0 || s >= f.MeshWidth*f.MeshWidth {
			return fmt.Errorf("soc: tile %d pinned to mesh slot %d outside the %dx%d mesh", i, s, f.MeshWidth, f.MeshWidth)
		}
		if j, dup := seen[s]; dup {
			return fmt.Errorf("soc: tiles %d and %d both pinned to mesh slot %d", j, i, s)
		}
		seen[s] = i
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// msgQueue is the FIFO of in-flight arrival cycles for one (src,dst) pair: a
// ring sized to the fabric capacity, so its buffer is never reallocated and a
// TrySendFuture reservation can mature in place.
type msgQueue struct {
	buf  []int64 // arrival cycles; futureArrival = reserved, not yet matured
	head int
	tail int
	n    int // current occupancy
}

// push appends an arrival cycle and returns the ring slot it occupies.
// Capacity is the caller's problem; the ring can never overflow because
// occupancy is bounded by Capacity == len(buf).
func (q *msgQueue) push(at int64) (slot int) {
	slot = q.tail
	q.buf[slot] = at
	if q.tail++; q.tail == len(q.buf) {
		q.tail = 0
	}
	q.n++
	return slot
}

// NewFabric builds a fabric with the given buffer capacity (entries per
// direction pair) and transfer latency in cycles.
func NewFabric(capacity int, latency int64) *Fabric {
	if capacity <= 0 {
		capacity = 512
	}
	return &Fabric{Capacity: capacity, Latency: latency, queues: map[[2]int]*msgQueue{}}
}

// Sends is the total number of accepted sends across all tiles.
func (f *Fabric) Sends() int64 { return f.sends }

// Recvs is the total number of consumed messages across all tiles.
func (f *Fabric) Recvs() int64 { return f.recvs }

// HopsTotal counts NoC hops traversed by accepted sends.
func (f *Fabric) HopsTotal() int64 { return f.hops }

// queue returns the FIFO for one (src,dst) pair, allocating on first send.
func (f *Fabric) queue(src, dst int) *msgQueue {
	key := [2]int{src, dst}
	q := f.queues[key]
	if q == nil {
		q = &msgQueue{buf: make([]int64, f.Capacity)}
		f.queues[key] = q
	}
	return q
}

// TrySend implements core.Fabric.
func (f *Fabric) TrySend(src, dst int, now int64) bool {
	q := f.queue(src, dst)
	if q.n >= f.Capacity {
		return false
	}
	lat, hops := f.transferCost(src, dst)
	q.push(now + lat)
	f.sends++
	f.hops += hops
	return true
}

// futureArrival is the arrival-cycle sentinel for a reserved slot whose
// maturity cycle is not yet known (TrySendFuture).
const futureArrival = int64(1<<62 - 1)

// TrySendFuture implements core.Fabric: reserves a slot that matures when
// the returned setter is called (DeSC terminal-load-buffer sends whose data
// is still in flight). The slot index stays valid until the setter fires:
// an immature message blocks the FIFO front, so the ring cannot recycle it.
func (f *Fabric) TrySendFuture(src, dst int) (func(int64), bool) {
	q := f.queue(src, dst)
	if q.n >= f.Capacity {
		return nil, false
	}
	slot := q.push(futureArrival)
	lat, hops := f.transferCost(src, dst)
	f.sends++
	f.hops += hops
	return func(at int64) { q.buf[slot] = at + lat }, true
}

// TryRecv implements core.Fabric.
func (f *Fabric) TryRecv(dst, src int, now int64) bool {
	q := f.queues[[2]int{src, dst}]
	if q == nil || q.n == 0 || q.buf[q.head] > now {
		return false
	}
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	f.recvs++
	return true
}

// BarrierArrive implements core.Fabric: registers one tile's arrival at its
// next barrier and returns that barrier's sequence number.
func (f *Fabric) BarrierArrive(tile int) int64 {
	for len(f.arrivals) <= tile {
		f.arrivals = append(f.arrivals, 0)
	}
	f.arrivals[tile]++
	return f.arrivals[tile] - 1
}

// SetBarrierParticipants registers which tiles take part in barriers.
// System construction derives this from the traces: a tile whose trace
// executes no barrier ops never arrives, and waiting on it would deadlock
// the whole system until the cycle limit.
func (f *Fabric) SetBarrierParticipants(parts []bool) {
	f.participants = parts
	f.arrivals = make([]int64, len(parts))
}

// BarrierReleased implements core.Fabric: true once every participating tile
// has arrived at barrier seq.
func (f *Fabric) BarrierReleased(seq int64) bool {
	for tile, in := range f.participants {
		if in && f.arrivals[tile] <= seq {
			return false
		}
	}
	return true
}

// frontArrivals calls fn(dst, at) with the front arrival cycle of every
// non-empty queue. Only the front can be consumed (FIFO), so it alone bounds
// the queue's next event; slots reserved by TrySendFuture (arrival unknown)
// are skipped — they mature through a load completion, which the owning
// core's horizon already covers.
func (f *Fabric) frontArrivals(fn func(dst int, at int64)) {
	for key, q := range f.queues {
		if q.n == 0 {
			continue
		}
		if at := q.buf[q.head]; at < futureArrival {
			fn(key[1], at)
		}
	}
}

// System is a complete simulated SoC: the cores the Interleaver steps in
// tile-ID order, the accelerator models they invoke, and the shared memory
// hierarchy and message fabric.
type System struct {
	Name   string
	Cores  []*core.Core
	Hier   *mem.Hierarchy
	Fabric *Fabric

	kinds []string // each core's kind, for TileBreakdown
	accel *accelManager

	Cycles int64

	// SteppedCycles counts Interleaver iterations actually simulated;
	// SkippedCycles counts cycles advanced arithmetically by event-horizon
	// skipping. Their sum is the simulated cycle count.
	SteppedCycles int64
	SkippedCycles int64
	// DisableCycleSkipping forces the naive cycle-by-cycle loop (the
	// equivalence-test reference and the -noskip flag).
	DisableCycleSkipping bool
	// OnProgress, when non-nil, is called from the simulating goroutine at
	// interleave boundaries (every ctxCheckInterval loop iterations) with
	// where the run stands, plus once — with Final set — on every Run exit
	// path. It exists for serving frontends that stream live progress; it
	// must be cheap — the simulator does not throttle it beyond the
	// interleave cadence — and it must not retain the update.
	OnProgress func(ProgressUpdate)
}

// ProgressUpdate is a point-in-time snapshot of a running simulation handed
// to System.OnProgress: the current cycle plus the stepped/skipped split
// (stepped + skipped cycles account for every simulated cycle so far).
type ProgressUpdate struct {
	Cycle   int64
	Stepped int64
	Skipped int64
	// Final marks the terminal update each Run exit path (completion,
	// cancellation, cycle limit) emits, so the last streamed position is
	// never stale by up to the poll interval plus the final horizon jump.
	Final bool
}

// finalProgress emits the terminal progress update on a Run exit path.
func (s *System) finalProgress(cycle int64) {
	if s.OnProgress != nil {
		s.OnProgress(ProgressUpdate{Cycle: cycle, Stepped: s.SteppedCycles, Skipped: s.SkippedCycles, Final: true})
	}
}

// AccelEnergy is the total accelerator dynamic energy in pJ.
func (s *System) AccelEnergy() float64 { return s.accel.EnergyPJ }

// AccelBytes is the total traffic accelerators moved to/from memory.
func (s *System) AccelBytes() int64 { return s.accel.Bytes }

// AccelCalls is the total number of accelerator invocations.
func (s *System) AccelCalls() int64 { return s.accel.Calls }

// New builds a system from per-tile specs, a memory configuration, and
// accelerator models (may be nil).
func New(name string, tiles []TileSpec, memCfg config.MemConfig, accels map[string]AccelModel) (*System, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("soc: system %q has no tiles", name)
	}
	maxClock := 0
	for _, t := range tiles {
		if t.Cfg.ClockMHz <= 0 {
			return nil, fmt.Errorf("soc: tile %q has no clock", t.Cfg.Name)
		}
		if t.Cfg.ClockMHz > maxClock {
			maxClock = t.Cfg.ClockMHz
		}
	}
	s := &System{
		Name:  name,
		Hier:  mem.NewHierarchy(memCfg, len(tiles), maxClock),
		accel: &accelManager{models: accels, due: map[string]*accelDue{}},
	}
	cap := tiles[0].Cfg.MaxMessages
	s.Fabric = NewFabric(cap, 1)
	s.Fabric.Tiles = len(tiles)
	// Each distinct kernel graph is lowered once; its cores share the program.
	lowered := map[*ddg.Graph]*core.Program{}
	for i, t := range tiles {
		if lowered[t.Graph] == nil {
			lowered[t.Graph] = core.Lower(t.Graph)
		}
		c := core.New(i, t.Cfg, lowered[t.Graph], t.TT, s.Hier, s.Fabric, s.accel)
		c.SetClockScale(int64(maxClock), int64(t.Cfg.ClockMHz))
		s.Cores = append(s.Cores, c)
		kind := t.Kind
		if kind == "" {
			kind = t.Cfg.Name
		}
		s.kinds = append(s.kinds, kind)
	}
	// Register barrier participants from the traces: a tile whose trace
	// executes no barrier ops must not be waited on, and participating
	// tiles with unequal barrier counts would deadlock — report that here
	// instead of burning the cycle limit.
	parts := make([]bool, len(tiles))
	ref := -1
	for i, c := range s.Cores {
		n := c.Barriers()
		parts[i] = n > 0
		if n == 0 {
			continue
		}
		if ref < 0 {
			ref = i
		} else if m := s.Cores[ref].Barriers(); m != n {
			return nil, fmt.Errorf(
				"soc: system %q would deadlock at a barrier: tile %d (%s) executes %d barrier ops but tile %d (%s) executes %d",
				name, ref, tiles[ref].Cfg.Name, m, i, tiles[i].Cfg.Name, n)
		}
	}
	s.Fabric.SetBarrierParticipants(parts)
	return s, nil
}

// NewSPMD builds an SPMD system: every core of cfg runs the same kernel graph
// against its own tile trace. It is Resolve and Build in one call.
func NewSPMD(cfg *config.SystemConfig, g *ddg.Graph, tr *trace.Trace, accels map[string]AccelModel) (*System, error) {
	t, err := Resolve(cfg, false)
	if err != nil {
		return nil, err
	}
	return Build(t, Binding{Graph: g, Trace: tr}, accels)
}

// DefaultCycleLimit guards Run(ctx, 0) against runaway simulations.
const DefaultCycleLimit = int64(1) << 40

// MaxCycleLimit caps every run's limit: a cycle stays below mem.HorizonNone
// (2^62), and a cache line packs its last use into 61 bits.
const MaxCycleLimit = int64(1) << 60

// ctxCheckInterval is how many Interleaver iterations pass between context
// polls. An iteration steps one cycle or jumps a frozen stretch of any
// length, and either is sub-microsecond even on wide systems — around 100µs
// under the race detector's instrumentation — so a cancel is observed well
// inside the engine's 100ms promptness contract without paying a context
// read (a mutex, for a cancelable context) per iteration.
const ctxCheckInterval = 128

// cancelErr wraps a context error with where the simulation stood, reporting
// the effective deadline (when one was set) alongside the cycle limit so a
// timed-out run shows both budgets it was running under. The context error
// stays in the chain for errors.Is(err, context.Canceled / DeadlineExceeded).
func (s *System) cancelErr(ctx context.Context, cause error, cycle, effLimit int64) error {
	if dl, ok := ctx.Deadline(); ok && errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("soc: system %q timed out at cycle %d (deadline %s, cycle limit %d): %w",
			s.Name, cycle, dl.Format("15:04:05.000"), effLimit, cause)
	}
	return fmt.Errorf("soc: system %q canceled at cycle %d (cycle limit %d): %w",
		s.Name, cycle, effLimit, cause)
}

// Run advances the system until every tile retires its trace and the memory
// hierarchy drains, or the cycle limit is hit (limit <= 0 selects
// DefaultCycleLimit; a limit past MaxCycleLimit is capped there). Run honors
// ctx: cancellation is polled every ctxCheckInterval loop iterations, a
// horizon jump counting as one, so a cancel or deadline returns promptly even
// mid-simulation with an error wrapping the context's, and a nil ctx is
// treated as context.Background().
//
// The Interleaver normally busy-ticks every core on its clock edges and the
// hierarchy each cycle. When an iteration makes zero forward progress and
// every live core has confirmed a frozen step, the loop instead jumps to the
// minimum next-event horizon across all components (event-horizon cycle
// skipping), advancing the per-core clock accumulators arithmetically. The
// cores' stepping contract (DESIGN §5d) makes this exact: a frozen step
// changes nothing, Progress moves only inside Step, NextEvent is never late,
// and stall time is charged at each component's next real step, so results
// are bit-identical to the naive loop.
func (s *System) Run(ctx context.Context, limit int64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Fabric.Validate(); err != nil {
		return err
	}
	effLimit := min(limit, MaxCycleLimit)
	if effLimit <= 0 {
		effLimit = DefaultCycleLimit
	}
	ctxCountdown := int64(ctxCheckInterval)
	nt := len(s.Cores)
	var maxClock int64
	for _, c := range s.Cores {
		maxClock = max(maxClock, int64(c.Cfg.ClockMHz))
	}
	strides := make([]int64, nt)
	accum := make([]int64, nt)
	// Event-horizon bookkeeping: idleOK[i] records that core i stepped
	// without making progress since the last progress event anywhere (its
	// steps then change nothing until something, somewhere, makes
	// progress). prog[i] is core i's progress counter as of its latest
	// step and tileProg the running sum over all cores: a counter only moves
	// inside the core's own Step, so one reading per step keeps both exact.
	idleOK := make([]bool, nt)
	prog := make([]uint64, nt)
	var tileProg uint64
	for i, c := range s.Cores {
		strides[i] = int64(c.Cfg.ClockMHz)
		accum[i] = maxClock // step every core on cycle 0
		prog[i] = c.Progress()
		tileProg += prog[i]
	}
	last := tileProg + uint64(s.Hier.Progress())
	for cycle := int64(0); cycle <= effLimit; cycle++ {
		// Interleave-boundary cancellation poll: every ctxCheckInterval
		// iterations (stepped or jumped), not every simulated cycle.
		if ctxCountdown--; ctxCountdown <= 0 {
			ctxCountdown = ctxCheckInterval
			if err := ctx.Err(); err != nil {
				s.finalProgress(cycle)
				return s.cancelErr(ctx, err, cycle, effLimit)
			}
			if s.OnProgress != nil {
				s.OnProgress(ProgressUpdate{Cycle: cycle, Stepped: s.SteppedCycles, Skipped: s.SkippedCycles})
			}
		}
		anyActive := false
		for i, c := range s.Cores {
			accum[i] += strides[i]
			if accum[i] >= maxClock {
				accum[i] -= maxClock
				if c.Step(cycle) {
					anyActive = true
				}
				if np := c.Progress(); np != prog[i] {
					tileProg += np - prog[i]
					prog[i] = np
				} else {
					idleOK[i] = true // frozen step
				}
			} else if !c.Done() {
				anyActive = true
			}
		}
		s.Hier.Tick(cycle)
		s.Cycles = cycle
		s.SteppedCycles++
		if !anyActive && !s.Hier.Busy() {
			s.finalProgress(cycle)
			return nil
		}
		if s.DisableCycleSkipping {
			continue
		}
		if cur := tileProg + uint64(s.Hier.Progress()); cur != last {
			// Progress invalidates every frozen-step confirmation: a core
			// that idled against the old state may act on the new one.
			last = cur
			for i := range idleOK {
				idleOK[i] = false
			}
			continue
		}
		confirmed := true
		for i, c := range s.Cores {
			if !c.Done() && !idleOK[i] {
				confirmed = false
				break
			}
		}
		if !confirmed {
			continue
		}
		// Every component is provably frozen: jump to the earliest cycle at
		// which any of them can act. A horizon past the limit (including a
		// true deadlock, HorizonNone everywhere) exits through the timeout
		// path immediately instead of burning the remaining cycles.
		target := s.horizon(cycle, accum, strides, maxClock, effLimit)
		if target > effLimit+1 {
			target = effLimit + 1
		}
		if target <= cycle+1 {
			continue
		}
		delta := target - 1 - cycle // whole iterations elided
		for i := range accum {
			// Advance the clock-ratio accumulator arithmetically over the
			// (frozen) steps core i would have taken.
			accum[i] = (accum[i] + delta*strides[i]) % maxClock
		}
		s.SkippedCycles += delta
		s.Cycles = target - 1
		cycle = target - 1 // the loop increment lands on target
	}
	s.finalProgress(s.Cycles)
	if limit <= 0 {
		return fmt.Errorf("soc: system %q exceeded the default cycle limit of %d (2^40) without completing; pass Run a larger limit if the workload is genuinely that long", s.Name, effLimit)
	}
	return fmt.Errorf("soc: system %q exceeded the cycle limit of %d without completing", s.Name, effLimit)
}

// horizon returns the earliest global cycle > now at which any component can
// change state, given that every component is frozen at now. Core-local
// events (completions, the mispredict launch release) and inbound fabric
// messages only take effect when the owning core's clock edge arrives, so
// they are mapped through nextEdgeCycle.
func (s *System) horizon(now int64, accum, strides []int64, maxClock, effLimit int64) int64 {
	target := mem.HorizonNone
	consider := func(idx int, ev int64) {
		if ev >= mem.HorizonNone {
			return
		}
		if ev > effLimit+1 {
			ev = effLimit + 1 // keep the edge arithmetic far from overflow
		}
		u := nextEdgeCycle(now, ev, accum[idx], strides[idx], maxClock)
		if u < target {
			target = u
		}
	}
	for i, c := range s.Cores {
		if !c.Done() {
			consider(i, c.NextEvent(now))
		}
	}
	if e := s.Hier.NextEvent(now); e < mem.HorizonNone {
		if e <= now {
			e = now + 1
		}
		if e < target {
			target = e
		}
	}
	s.Fabric.frontArrivals(func(dst int, at int64) {
		// A message already mature (at <= now) is part of the frozen state:
		// the destination observed and ignored it, so it cannot trigger a
		// future change.
		if at > now && dst >= 0 && dst < len(s.Cores) && !s.Cores[dst].Done() {
			consider(dst, at)
		}
	})
	return target
}

// nextEdgeCycle returns the first cycle u >= max(ev, now+1) at which a core
// with accumulator a (sampled after the iteration at now), stride s, and
// system clock M takes a step. The loop's recurrence steps the core at
// now+j iff floor((a+j*s)/M) > floor((a+(j-1)*s)/M).
func nextEdgeCycle(now, ev, a, s, m int64) int64 {
	j0 := ev - now
	if j0 < 1 {
		j0 = 1
	}
	c0 := (a + (j0-1)*s) / m
	j := j0
	if need := ((c0+1)*m - a + s - 1) / s; need > j {
		j = need
	}
	return now + j
}

// EnergyBreakdown attributes dynamic energy to system components.
type EnergyBreakdown struct {
	CoresPJ float64
	L1PJ    float64
	L2PJ    float64
	LLCPJ   float64
	DRAMPJ  float64
	AccelPJ float64
}

// TotalPJ sums the components.
func (e EnergyBreakdown) TotalPJ() float64 {
	return e.CoresPJ + e.L1PJ + e.L2PJ + e.LLCPJ + e.DRAMPJ + e.AccelPJ
}

// Result summarizes a finished run.
type Result struct {
	Cycles     int64
	Instrs     int64
	IPC        float64
	EnergyPJ   float64
	Energy     EnergyBreakdown
	CoreStats  []core.Stats
	L1         mem.CacheStats
	L2         mem.CacheStats
	LLC        mem.CacheStats
	DRAM       mem.DRAMStats
	AccelCalls int64
	AccelBytes int64
}

// Result collects the system-wide estimate (§II "total system estimates").
func (s *System) Result() Result {
	r := Result{Cycles: s.Cycles}
	for _, c := range s.Cores {
		r.CoreStats = append(r.CoreStats, c.Stats)
		r.Instrs += c.Stats.Instrs
		r.EnergyPJ += c.Stats.EnergyPJ
	}
	if s.Cycles > 0 {
		r.IPC = float64(r.Instrs) / float64(s.Cycles)
	}
	r.L1 = mem.TotalStats(s.Hier.L1s)
	r.L2 = mem.TotalStats(s.Hier.L2s)
	if s.Hier.LLC != nil {
		r.LLC = s.Hier.LLC.Stats
	}
	r.DRAM = mem.DRAMStatsOf(s.Hier.DRAM)
	// Per-component dynamic energy (§III-B instruction energies plus
	// per-access memory-system costs).
	r.Energy = EnergyBreakdown{
		CoresPJ: r.EnergyPJ,
		L1PJ:    float64(r.L1.Accesses) * config.EnergyL1AccessPJ,
		L2PJ:    float64(r.L2.Accesses) * config.EnergyL2AccessPJ,
		LLCPJ:   float64(r.LLC.Accesses) * config.EnergyLLCAccessPJ,
		DRAMPJ:  float64(r.DRAM.Reads+r.DRAM.Writebacks) * config.EnergyDRAMAccessPJ,
		AccelPJ: s.accel.EnergyPJ,
	}
	r.EnergyPJ = r.Energy.TotalPJ()
	r.AccelCalls = s.accel.Calls
	r.AccelBytes = s.accel.Bytes
	return r
}
