package core

import (
	"fmt"
	"math/bits"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/mem"
	"mosaicsim/internal/trace"
)

// MemPort is the tile's view of the memory hierarchy (its private cache
// queue, §V): w is told, with tag, when core's access completes.
type MemPort interface {
	AccessAt(core int, addr uint64, size int, kind mem.Kind, now int64, w mem.Waiter, tag int64)
}

// Fabric is the tile's view of the Interleaver's inter-tile message transport
// (§II-C). Sends enqueue into bounded buffers; recvs consume matured
// messages. Barriers synchronize SPMD tiles.
type Fabric interface {
	// TrySend enqueues a message from src to dst at cycle now; false when
	// the communication buffer is full (the send retries).
	TrySend(src, dst int, now int64) bool
	// TryRecv consumes a message from src matured at or before now; false
	// when none is available yet.
	TryRecv(dst, src int, now int64) bool
	// TrySendFuture reserves a buffer slot whose arrival cycle is supplied
	// later (the DeSC terminal-load buffer: a send fused with a pending
	// load matures when the load's data returns).
	TrySendFuture(src, dst int) (setArrival func(int64), ok bool)
	// BarrierArrive registers tile's arrival at its next barrier and
	// returns that barrier's sequence number.
	BarrierArrive(tile int) int64
	// BarrierReleased reports whether every tile has arrived at barrier seq.
	BarrierReleased(seq int64) bool
}

// AccelInvoker dispatches accelerator invocations to their performance
// models (§IV-A) and returns the invocation's completion cycle.
type AccelInvoker interface {
	Invoke(name string, params []int64, now int64) (int64, error)
}

// Stats aggregates one tile's simulation results.
type Stats struct {
	Cycles     int64
	Instrs     int64
	Loads      int64
	Stores     int64
	Atomics    int64
	Sends      int64
	Recvs      int64
	AccCalls   int64
	Mispredict int64
	// Stall cycles, in system cycles like Cycles: the cycles after a step
	// that issued nothing, charged to the first hazard that step met.
	MAOStalls    int64 // a memory op held by MAO ordering or LSQ capacity
	FUStalls     int64 // a node held by a busy functional unit
	WindowStalls int64 // the window full, at launch or at issue
	CommStalls   int64 // a send, recv or barrier not yet possible
	EnergyPJ     float64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// stallCause is why a step issued nothing: the first hazard it met. The next
// Step charges the cycles since to it. A frozen step meets the same hazard, so
// the cycles a horizon jump elides land where the naive loop puts them.
type stallCause uint8

const (
	stallNone stallCause = iota
	stallMAO
	stallFU
	stallWindow
	stallComm
	stallIssued // the step issued: its cycles are no stall
)

type nodeState uint8

const (
	stateWaiting nodeState = iota
	stateReady
	stateIssued
	stateCompleted
)

// dynNode is one dynamic instruction instance (one node of a DBB): a slot of
// the core's ring, overwritten in place when its seq comes round again.
// class, kind and free are copied from sn at launch: the hot paths never
// chase it.
type dynNode struct {
	sn  *StaticNode
	dbb *dynDBB
	seq int64 // global program order; the node lives at nodes[seq&mask]

	// addr is the traced memory address, or by kind the fabric barrier index
	// this node waits on (valid once barrierArrived is set) or the index of
	// the accelerator invocation in the trace.
	addr uint64
	// maoPos is 1 + the node's absolute position in the MAO stream (0 = not
	// a memory op); complete uses it to clear the node's MAO slot so reused
	// slots are never scanned through stale pointers.
	maoPos int64

	parentsLeft int32
	depHead     int32 // cross-DBB consumers: head of the list in Core.edges, -1 = none
	partner     int32 // communication partner from the trace
	memSize     int32

	class          config.InstrClass
	kind           OpKind
	memKind        mem.Kind
	state          nodeState
	free           bool // fused idiom: retires without issue width, FU, or latency
	barrierArrived bool
}

// edge is one cross-DBB dependence waiting on a producer still in flight:
// dep is the consumer's ring slot, next the producer's next edge (or, on the
// free list, the next free entry).
type edge struct{ dep, next int32 }

// dynDBB is a dynamic basic block: one launched instance of a static block.
type dynDBB struct {
	blockID    int
	remaining  int   // uncompleted nodes (live-DBB accounting)
	baseSeq    int64 // seq of the block's first node
	termSeq    int64
	termDone   bool // terminator completed
	mispredict bool // launch of the successor pays the penalty
}

// Core is one core tile. It consumes a TileTrace and the function's DDG and
// produces cycle/energy estimates.
type Core struct {
	ID    int
	Cfg   config.CoreConfig
	Stats Stats

	prog   *Program
	tt     *trace.TileTrace
	memp   MemPort
	fabric Fabric
	accel  AccelInvoker

	// trace cursors; memLast holds, per MemSlot, the address the slot's
	// instruction accessed last, which its next one is a delta from.
	path      trace.Walk
	mem       trace.Cursor
	comm      trace.Cursor
	memLast   []uint64
	accCursor int
	barriers  int64 // barrier ops on the path

	// The sliding instruction window (ROB) is [headSeq, seqCounter): seq s
	// lives at nodes[s&mask], retiring is headSeq++. The ring is a power of
	// two >= 64 slots holding the window limit plus the largest block.
	nodes      []dynNode
	mask       int64
	headSeq    int64
	seqCounter int64
	// lastDyn is the seq of the latest dynamic instance per static
	// instruction (-1 = none). A seq below headSeq has retired, hence
	// completed: binding to it needs no edge.
	lastDyn []int64
	// edges pools the cross-DBB and phi dependences of in-flight producers
	// (dynNode.depHead); edgeFree heads its free list.
	edges     []edge
	edgeFree  int32
	bpHistory uint16 // gshare's 12 history bits (config.BranchDynamic)
	finished  bool   // these four share one word
	stall     stallCause

	liveDBB  []int   // static block ID -> live DBB count
	lastDBB  *dynDBB // most recently launched DBB
	launchAt int64   // earliest cycle the next DBB may launch (after penalty)

	// ready holds one bit per ring slot: out of order, the nodes ready to
	// issue; in order, the store buffer (parked stores). Keys are unique
	// seqs, so scanning up from headSeq yields them in the order a priority
	// queue would.
	ready      []uint64
	readyCount int
	// issueSeq is the in-order issue cursor (InOrder mode).
	issueSeq int64
	// pendingDrain holds the partner tiles of parked recvs (DeSC store
	// value buffer): the pipeline has moved on, the messages are consumed
	// from the fabric as they arrive.
	pendingDrain []int
	// fused holds, per DeSC send issued ahead of the load it forwards, the
	// load's seq and the fabric slot's arrival setter (terminal load buffer).
	fused []fusedSend

	// MAO (LSQ): memory nodes in program order, pruned as they complete.
	mao         []*dynNode
	maoHead     int
	maoBase     int64 // absolute MAO position of mao[0] (post-compaction offset)
	maoTotal    int64 // absolute MAO positions handed out
	maoInUse    int   // issued-but-incomplete memory ops (capacity check)
	outstanding int   // issued-but-incomplete nodes of any kind

	fuBusy [config.NumClasses]int
	// Per-class tables resolved once from Cfg's string-keyed maps.
	lat   [config.NumClasses]int64
	fuLim [config.NumClasses]int

	completions eventHeap // in-flight nodes by completion cycle
	finishCycle int64

	// clock scaling: fixed latencies in core cycles are converted to global
	// Interleaver cycles as lat * clockNum / clockDen (§II "tiles may run at
	// different clock speeds").
	clockNum, clockDen int64

	// progress counts state-changing events (launches, issues, parked
	// stores, completions, drains, barrier arrivals). The Interleaver
	// compares successive readings to detect frozen tiles and engage
	// event-horizon cycle skipping.
	progress uint64

	freeDBBs []*dynDBB // DBBs are recycled once every node completed

	bpCounters []uint8 // gshare's 2-bit counters
}

type fusedSend struct {
	load int64
	set  func(int64)
}

const (
	gshareBits = 12
	gshareMask = (1 << gshareBits) - 1
)

// New builds a core tile replaying tt against the lowered program p (shared,
// read-only, by every core running the same kernel; a DeSC core replays its
// own fused copy).
func New(id int, cfg config.CoreConfig, p *Program, tt *trace.TileTrace, memp MemPort, fabric Fabric, accel AccelInvoker) *Core {
	if cfg.DecoupledSupply {
		p = p.withDeSC()
	}
	c := &Core{
		ID:       id,
		Cfg:      cfg,
		prog:     p,
		tt:       tt,
		memp:     memp,
		fabric:   fabric,
		accel:    accel,
		lastDyn:  make([]int64, len(p.nodes)),
		edgeFree: -1,
		liveDBB:  make([]int, len(p.Blocks)),
		clockNum: 1,
		clockDen: 1,
	}
	c.path, c.mem, c.comm = tt.BBPath.Walk(p.CFG), tt.Mem.Cursor(), tt.Comm.Cursor()
	for i := range c.lastDyn {
		c.lastDyn[i] = -1
	}
	for cl := config.InstrClass(0); cl < config.NumClasses; cl++ {
		c.lat[cl], c.fuLim[cl] = cfg.Latency(cl), cfg.FULimit(cl)
	}
	// Size the ring and the hot-path backing arrays from the trace so the
	// steady state never grows them. total is the tile's dynamic instruction
	// count; a launch needs unretired < WindowSize, so the window never
	// holds more than WindowSize plus the largest block. The path's block
	// histogram is counted in liveDBB, which is zeroed again before use.
	tt.BBPath.Count(p.CFG, c.liveDBB)
	total, maxBlock := 0, 0
	for b, k := range c.liveDBB {
		if k > 0 {
			total += k * p.Blocks[b].N
			maxBlock = max(maxBlock, p.Blocks[b].N)
			c.barriers += int64(k * p.Blocks[b].Barriers)
		}
		c.liveDBB[b] = 0
	}
	size := 64
	for size < min(total, max(cfg.WindowSize, 0)+maxBlock) {
		size *= 2
	}
	c.nodes, c.mask = make([]dynNode, size), int64(size-1)
	words := make([]uint64, size/64+p.memSlots) // the ready bits, then memLast
	c.ready, c.memLast = words[:size/64:size/64], words[size/64:]
	c.completions = make(eventHeap, 0, min(total, cfg.WindowSize+8))
	c.mao = make([]*dynNode, 0, min(total, 2*cfg.LSQSize+64))
	return c
}

// Tables returns the per-class latency and functional-unit tables the core
// resolved from its config at build time.
func (c *Core) Tables() (lat [config.NumClasses]int64, fuLimit [config.NumClasses]int) {
	return c.lat, c.fuLim
}

func (c *Core) allocDBB(bid, nodes int, base int64) *dynDBB {
	var d *dynDBB
	if k := len(c.freeDBBs); k > 0 {
		d = c.freeDBBs[k-1]
		c.freeDBBs = c.freeDBBs[:k-1]
	} else {
		d = &dynDBB{}
	}
	*d = dynDBB{blockID: bid, remaining: nodes, baseSeq: base, termSeq: base + int64(c.prog.Blocks[bid].TermPos)}
	return d
}

// SetFreeInstrs marks static instructions (by layout index) as fused idioms
// that cost no issue slot, functional unit, or latency. The hardware
// reference model uses this to mimic an ISA where IR idioms (gep+load,
// phi copies, casts) map onto single machine instructions (§VI-A). It must
// be called before the first Step; the core switches to a private copy of
// the shared program with the Free bits set.
func (c *Core) SetFreeInstrs(mask []bool) { c.prog = c.prog.withFree(mask) }

// SetClockScale configures conversion from core cycles to global Interleaver
// cycles: one core cycle spans num/den global cycles.
func (c *Core) SetClockScale(num, den int64) {
	if num <= 0 || den <= 0 {
		return
	}
	c.clockNum, c.clockDen = num, den
}

// scaleLat converts a core-cycle latency to global cycles (rounded up).
func (c *Core) scaleLat(lat int64) int64 {
	if c.clockNum == c.clockDen {
		return lat
	}
	return (lat*c.clockNum + c.clockDen - 1) / c.clockDen
}

// Barriers returns how many barrier ops the tile's trace executes.
func (c *Core) Barriers() int64 { return c.barriers }

// Done reports whether the tile has retired its whole trace.
func (c *Core) Done() bool { return c.finished }

// FinishCycle returns the tile-local cycle at which the trace retired.
func (c *Core) FinishCycle() int64 { return c.finishCycle }

// event is a completion-heap entry: a node keyed by its completion cycle.
// The key sits beside the pointer so sifts touch no node.
type event struct {
	key  int64
	node *dynNode
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

// push and pop mirror container/heap's algorithm exactly (same compares, same
// swaps, so entries with equal keys pop in the same order) but are typed:
// the heap.Interface path boxed an entry per Push and per Pop, which was the
// single largest allocation source in the simulator.
func (h *eventHeap) push(v event) {
	a := append(*h, v)
	*h = a
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 2
		if a[j].key >= a[i].key {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].key < a[j].key {
			j = j2
		}
		if a[j].key >= a[i].key {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	v := a[n]
	a[n] = event{}
	*h = a[:n]
	return v
}

// Step advances the tile by one of its own clock cycles. It returns true
// while the tile still has work.
func (c *Core) Step(now int64) bool {
	if c.finished {
		return false
	}
	c.chargeStall(now)
	c.processCompletions(now)
	// Drain the store-value buffer: consume matured messages for recvs that
	// already left the pipeline.
	for len(c.pendingDrain) > 0 && c.fabric.TryRecv(c.ID, c.pendingDrain[0], now) {
		c.pendingDrain = c.pendingDrain[1:]
		c.progress++
	}
	c.launchDBBs(now)
	c.issue(now)
	c.retire()
	if _, more := c.path.Peek(); !more && c.headSeq == c.seqCounter && c.completions.Len() == 0 && c.outstanding == 0 && len(c.pendingDrain) == 0 {
		c.finished = true
		c.finishCycle = now
		c.Stats.Cycles = now
		c.progress++
		return false
	}
	c.Stats.Cycles = now
	return true
}

// chargeStall charges the cycles since the previous step to its stall cause.
func (c *Core) chargeStall(now int64) {
	d := now - c.Stats.Cycles
	switch c.stall {
	case stallMAO:
		c.Stats.MAOStalls += d
	case stallFU:
		c.Stats.FUStalls += d
	case stallWindow:
		c.Stats.WindowStalls += d
	case stallComm:
		c.Stats.CommStalls += d
	}
	c.stall = stallNone
}

// hazard records cause unless this step already issued or met a hazard.
func (c *Core) hazard(cause stallCause) {
	if c.stall == stallNone {
		c.stall = cause
	}
}

// processCompletions retires timing events due at or before now.
func (c *Core) processCompletions(now int64) {
	for c.completions.Len() > 0 && c.completions[0].key <= now {
		ev := c.completions.pop()
		c.complete(ev.node, now)
	}
}

// complete marks a node finished, frees its resources, and wakes dependents
// (rule 2, §II-A): the block's own consumers from the static Wake list, later
// blocks' from the edges bound at their launch.
func (c *Core) complete(n *dynNode, now int64) {
	if n.state == stateCompleted {
		return
	}
	n.state = stateCompleted
	c.outstanding--
	c.progress++
	if len(c.fused) > 0 {
		c.matureFused(n.seq, now)
	}
	if !n.free {
		if c.fuLim[n.class] > 0 {
			c.fuBusy[n.class]--
		}
		if n.kind == KindMem {
			c.maoInUse--
		}
	}
	// Clear the node's MAO slot so ordering scans never chase a pointer into
	// a reused ring slot (slots are pruned/compacted lazily by tryIssueMem).
	if n.maoPos != 0 {
		if i := n.maoPos - 1 - c.maoBase; i >= 0 && i < int64(len(c.mao)) && c.mao[i] == n {
			c.mao[i] = nil
		}
	}
	c.Stats.Instrs++
	c.Stats.EnergyPJ += config.EnergyPerClassPJ[n.class]
	// A mispredicted terminator releases the next launch only after the
	// misprediction penalty (§III-C).
	d := n.dbb
	if n.seq == d.termSeq {
		d.termDone = true
		if d.mispredict {
			c.launchAt = now + c.scaleLat(c.Cfg.MispredictPenalty)
		}
	}
	d.remaining--
	if d.remaining == 0 {
		c.liveDBB[d.blockID]--
		if d != c.lastDBB {
			c.freeDBBs = append(c.freeDBBs, d)
		}
	}
	for _, pos := range n.sn.Wake {
		c.wake(&c.nodes[(d.baseSeq+int64(pos))&c.mask])
	}
	for e := n.depHead; e >= 0; {
		ed := c.edges[e]
		c.wake(&c.nodes[ed.dep])
		c.edges[e].next, c.edgeFree = c.edgeFree, e
		e = ed.next
	}
	n.depHead = -1
}

// wake resolves one operand of d.
func (c *Core) wake(d *dynNode) {
	d.parentsLeft--
	if d.parentsLeft == 0 && d.state == stateWaiting {
		d.state = stateReady
		if !c.Cfg.InOrder {
			c.setReady(d.seq)
		}
	}
}

func (c *Core) setReady(seq int64) {
	c.ready[(seq&c.mask)>>6] |= 1 << (seq & 63)
	c.readyCount++
}

func (c *Core) clearReady(seq int64) {
	c.ready[(seq&c.mask)>>6] &^= 1 << (seq & 63)
	c.readyCount--
}

// nextReady returns the smallest seq in [from, seqCounter) whose ready bit is
// set, or -1. Bits past the youngest node belong to older seqs a full ring
// behind, so a hit at or beyond seqCounter is no hit.
func (c *Core) nextReady(from int64) int64 {
	for s := from; s < c.seqCounter; s += 64 - s&63 {
		if w := c.ready[(s&c.mask)>>6] >> (s & 63); w != 0 {
			if s += int64(bits.TrailingZeros64(w)); s < c.seqCounter {
				return s
			}
			return -1
		}
	}
	return -1
}

// matureFused hands a completed load's cycle to the DeSC sends issued ahead
// of it, in issue order.
func (c *Core) matureFused(load, now int64) {
	k := 0
	for _, f := range c.fused {
		if f.load == load {
			f.set(now)
		} else {
			c.fused[k] = f
			k++
		}
	}
	clear(c.fused[k:])
	c.fused = c.fused[:k]
}

// MemDone implements mem.Waiter: the access of the node with seq completed at
// cycle at, plus an atomic's read-modify-write surcharge. An issued node is
// not retired, so its ring slot still holds it.
func (c *Core) MemDone(seq, at int64) {
	n := &c.nodes[seq&c.mask]
	if n.memKind == mem.Atomic {
		at += c.Cfg.AtomicExtraLatency
	}
	c.completions.push(event{at, n})
}

// retire slides the instruction window (ROB) forward over completed nodes
// (§III-A "ROB").
func (c *Core) retire() {
	for c.headSeq < c.seqCounter && c.nodes[c.headSeq&c.mask].state == stateCompleted {
		c.headSeq++
	}
}

// launchDBBs launches dynamic basic blocks from the control trace (rule 3,
// §II-A) subject to speculation policy, live-DBB limits, and window space.
func (c *Core) launchDBBs(now int64) {
	launches := 0
	maxLaunch := c.Cfg.IssueWidth
	if maxLaunch < 1 {
		maxLaunch = 1
	}
	for launches < maxLaunch {
		bid, ok := c.path.Peek()
		if !ok {
			return
		}
		if c.lastDBB != nil {
			switch c.Cfg.Branch {
			case config.BranchPerfect:
				// Launch immediately.
			case config.BranchStatic, config.BranchDynamic:
				if c.lastDBB.mispredict {
					// Wait for the terminator, then pay the penalty.
					if !c.lastDBB.termDone || now < c.launchAt {
						return
					}
				}
			default: // BranchNone
				if !c.lastDBB.termDone {
					return
				}
			}
		}
		if c.Cfg.MaxLiveDBB > 0 && c.liveDBB[bid] >= c.Cfg.MaxLiveDBB {
			return
		}
		if u := c.seqCounter - c.headSeq; u >= int64(c.Cfg.WindowSize) && u > 0 {
			c.hazard(stallWindow)
			return
		}
		c.launchOne(bid)
		launches++
	}
}

// launchOne stamps out the dynamic nodes of one DBB from the block's lowered
// records into the next ring slots and binds dependence edges: intra-DBB
// edges are the static Wake lists, cross edges go to the most recent dynamic
// instance of the producer (§II-A). Only what the trace decides stays
// dynamic: the operand cursors and the phi predecessor.
func (c *Core) launchOne(bid int) {
	blk := &c.prog.Blocks[bid]
	prevBlock := -1 // the block launched last, whose phis this launch resolves against
	if c.lastDBB != nil {
		prevBlock = c.lastDBB.blockID
	}
	c.path.Next()

	base := c.seqCounter
	if base+int64(blk.N)-c.headSeq > int64(len(c.nodes)) {
		panic(fmt.Sprintf("core: tile %d window ring overflow: %d unretired + block of %d in %d slots", c.ID, base-c.headSeq, blk.N, len(c.nodes)))
	}
	d := c.allocDBB(bid, blk.N, base)
	c.liveDBB[bid]++
	recs := c.prog.Nodes(bid)
	// lastDyn is updated only after the whole block is bound, so cross edges
	// see the previous instances (loop-carried values).
	for pos := range recs {
		sn := &recs[pos]
		n := &c.nodes[(base+int64(pos))&c.mask]
		n.sn, n.class, n.kind, n.free = sn, sn.Class, sn.Kind, sn.Free
		n.dbb, n.seq, n.state = d, base+int64(pos), stateWaiting
		n.parentsLeft, n.depHead, n.maoPos, n.barrierArrived = int32(len(sn.Intra)), -1, 0, false
		for _, idx := range sn.Cross {
			c.bind(n, idx)
		}
		if sn.Phi != nil && prevBlock >= 0 && sn.Phi[prevBlock] >= 0 {
			c.bind(n, sn.Phi[prevBlock])
		}

		switch sn.Kind {
		case KindMem:
			addr, ok := c.mem.NextAddr(&c.memLast[sn.MemSlot])
			if !ok {
				panic(fmt.Sprintf("core: tile %d memory trace exhausted at instruction %d", c.ID, sn.Idx))
			}
			n.addr, n.memSize, n.memKind = addr, int32(sn.MemSize), sn.MemKind
			c.maoTotal++
			n.maoPos = c.maoTotal
			c.mao = append(c.mao, n)
		case KindSend, KindRecv:
			partner, ok := c.comm.Next()
			if !ok {
				panic(fmt.Sprintf("core: tile %d comm trace exhausted", c.ID))
			}
			n.partner = int32(partner)
		case KindAcc:
			if c.accCursor >= len(c.tt.Acc) {
				panic(fmt.Sprintf("core: tile %d accelerator trace exhausted", c.ID))
			}
			n.addr = uint64(c.accCursor)
			c.accCursor++
		}
	}
	c.seqCounter = base + int64(blk.N)
	for pos := range recs {
		n := &c.nodes[(base+int64(pos))&c.mask]
		c.lastDyn[recs[pos].Idx] = n.seq
		if n.parentsLeft == 0 {
			n.state = stateReady
			if !c.Cfg.InOrder {
				c.setReady(n.seq)
			}
		}
	}

	// Branch prediction (§III-C): decide whether launching the *next* DBB
	// must wait for this terminator plus the misprediction penalty.
	if actual, ok := c.path.Peek(); ok {
		switch c.Cfg.Branch {
		case config.BranchStatic:
			d.mispredict = staticPrediction(c.prog.CFG[bid], bid) != actual
		case config.BranchDynamic:
			d.mispredict = !c.gsharePredict(recs[blk.TermPos].Instr, actual)
		}
		if d.mispredict {
			c.Stats.Mispredict++
		}
	}
	// The displaced lastDBB stays live only while it gates the next launch;
	// once replaced, recycle it if every node already completed.
	if old := c.lastDBB; old != nil && old != d && old.remaining == 0 {
		c.freeDBBs = append(c.freeDBBs, old)
	}
	c.lastDBB = d
	c.progress++
}

// bind makes n wait for the latest dynamic instance of static instruction
// idx, the producer of one of its operands, unless that instance retired
// (its seq is below the window) or completed.
func (c *Core) bind(n *dynNode, idx int32) {
	ps := c.lastDyn[idx]
	if ps < c.headSeq {
		return
	}
	p := &c.nodes[ps&c.mask]
	if p.state == stateCompleted {
		return
	}
	e := c.edgeFree
	if e < 0 {
		e = int32(len(c.edges))
		c.edges = append(c.edges, edge{})
	} else {
		c.edgeFree = c.edges[e].next
	}
	c.edges[e] = edge{dep: int32(n.seq & c.mask), next: p.depHead}
	p.depHead = e
	n.parentsLeft++
}

// gsharePredict predicts one conditional branch with a gshare predictor and
// trains it on the traced outcome; it returns whether the prediction was
// correct. Unconditional terminators always predict correctly.
func (c *Core) gsharePredict(term *ir.Instr, actualNext int) bool {
	if term.Op != ir.OpCondBr {
		return true
	}
	if c.bpCounters == nil {
		c.bpCounters = make([]uint8, gshareMask+1)
		// Weakly taken initial state.
		for i := range c.bpCounters {
			c.bpCounters[i] = 2
		}
	}
	taken := term.Targets[0].ID == actualNext
	idx := (uint32(term.Idx)*2654435761 ^ uint32(c.bpHistory)) & gshareMask
	predictTaken := c.bpCounters[idx] >= 2
	if taken {
		if c.bpCounters[idx] < 3 {
			c.bpCounters[idx]++
		}
		c.bpHistory = (c.bpHistory << 1) | 1
	} else {
		if c.bpCounters[idx] > 0 {
			c.bpCounters[idx]--
		}
		c.bpHistory = c.bpHistory << 1
	}
	c.bpHistory &= gshareMask
	return predictTaken == taken
}

// issue dispatches up to IssueWidth ready nodes per cycle subject to the
// window, functional units, the MAO, and communication buffers (rule 1,
// §II-A; §III-A). Ready nodes are visited oldest first; one that hits a
// structural hazard keeps its bit and is passed over until the next cycle.
func (c *Core) issue(now int64) {
	if c.Cfg.InOrder {
		c.issueInOrder(now)
		return
	}
	issued := 0
	windowLimit := c.headSeq + int64(c.Cfg.WindowSize)
	for s := c.headSeq; issued < c.Cfg.IssueWidth && c.readyCount > 0; s++ {
		if s = c.nextReady(s); s < 0 {
			break
		}
		n := &c.nodes[s&c.mask]
		if n.free {
			// Fused idiom: retires instantly without consuming issue
			// bandwidth, waking dependents (all younger) within this cycle.
			c.clearReady(s)
			n.state = stateIssued
			c.outstanding++
			c.complete(n, now)
			continue
		}
		if s >= windowLimit {
			// Oldest ready node is outside the window; all others are too.
			c.hazard(stallWindow)
			break
		}
		if c.tryIssue(n, now) {
			c.clearReady(s)
			issued++
		}
	}
}

// issueInOrder models a scoreboarded in-order pipeline: instructions issue
// strictly in program order; issue stalls when the next instruction's
// operands are pending (stall-on-use), while independent younger work never
// bypasses it. Completion remains out of order (hit-under-miss), and stores
// blocked only on memory ordering park in a store buffer (the ready bits,
// unused for issue in this mode) so they drain without stalling the pipe.
func (c *Core) issueInOrder(now int64) {
	// Drain parked stores/recvs in program order; they already consumed
	// their issue slots. Stop at the first blocked one so same-channel
	// recvs keep FIFO order.
	for c.readyCount > 0 {
		s := c.nextReady(c.headSeq)
		if !c.tryIssue(&c.nodes[s&c.mask], now) {
			break
		}
		c.clearReady(s)
	}
	issued := 0
	for issued < c.Cfg.IssueWidth {
		c.issueSeq = max(c.issueSeq, c.headSeq)
		// Skip already-processed entries.
		for c.issueSeq < c.seqCounter {
			if st := c.nodes[c.issueSeq&c.mask].state; st != stateIssued && st != stateCompleted {
				break
			}
			c.issueSeq++
		}
		if c.issueSeq >= c.seqCounter {
			return
		}
		n := &c.nodes[c.issueSeq&c.mask]
		if n.parentsLeft > 0 {
			return // stall-on-use
		}
		if n.free {
			n.state = stateIssued
			c.outstanding++
			c.complete(n, now)
			c.issueSeq++
			continue
		}
		// Store-buffer semantics: a store (or atomic) blocked only on MAO
		// ordering parks and drains later instead of stalling the pipeline.
		if n.kind == KindMem && n.memKind != mem.Read &&
			c.maoInUse+c.readyCount < c.Cfg.LSQSize && c.maoOrderBlocked(n) {
			c.setReady(n.seq)
			c.stall = stallIssued
			c.progress++
			c.issueSeq++
			issued++
			continue
		}
		// Store-value-buffer semantics (DeSC, §VII-A): a recv whose data
		// only feeds a store leaves the pipeline immediately; the message
		// is consumed from the fabric whenever it arrives.
		if n.sn.Parkable && len(c.pendingDrain) < maxParked(c.Cfg.MaxMessages) {
			if !c.fabric.TryRecv(c.ID, int(n.partner), now) {
				c.pendingDrain = append(c.pendingDrain, int(n.partner))
			}
			c.Stats.Recvs++
			c.issueFixed(n, now, c.lat[config.ClassSpecial])
			c.issueSeq++
			issued++
			continue
		}
		if !c.tryIssue(n, now) {
			return // structural hazard
		}
		c.issueSeq++
		issued++
	}
}

// tryIssue attempts to issue one node; false means a structural hazard (FU,
// MAO, communication) and the node retries next cycle.
func (c *Core) tryIssue(n *dynNode, now int64) bool {
	if lim := c.fuLim[n.class]; lim > 0 && c.fuBusy[n.class] >= lim {
		c.hazard(stallFU)
		return false
	}
	switch n.kind {
	case KindMem:
		return c.tryIssueMem(n, now)
	case KindSend:
		// A fused load below the window retired, hence completed: the
		// plain-send path below is correct for it.
		if load := n.dbb.baseSeq + int64(n.sn.Fused) - 1; n.sn.Fused > 0 && load >= c.headSeq && c.nodes[load&c.mask].state != stateCompleted {
			// Terminal load buffer: reserve the slot now; the message
			// matures when the load's data returns.
			set, ok := c.fabric.TrySendFuture(c.ID, int(n.partner))
			if !ok {
				c.hazard(stallComm)
				return false
			}
			c.fused = append(c.fused, fusedSend{load, set})
			c.Stats.Sends++
			c.issueFixed(n, now, c.lat[config.ClassSpecial])
			return true
		}
		if !c.fabric.TrySend(c.ID, int(n.partner), now) {
			c.hazard(stallComm)
			return false
		}
		c.Stats.Sends++
		c.issueFixed(n, now, c.lat[config.ClassSpecial])
		return true
	case KindBarrier:
		if !n.barrierArrived {
			n.addr = uint64(c.fabric.BarrierArrive(c.ID))
			n.barrierArrived = true
			// Arrival is a state change other tiles observe even though this
			// tile stalls, so it must defeat idle detection.
			c.progress++
		}
		if !c.fabric.BarrierReleased(int64(n.addr)) {
			c.hazard(stallComm)
			return false
		}
		c.issueFixed(n, now, c.lat[config.ClassSpecial])
		return true
	case KindRecv:
		if !c.fabric.TryRecv(c.ID, int(n.partner), now) {
			c.hazard(stallComm)
			return false
		}
		c.Stats.Recvs++
		c.issueFixed(n, now, c.lat[config.ClassSpecial])
		return true
	case KindAcc:
		call := &c.tt.Acc[n.addr]
		if c.accel == nil {
			panic(fmt.Sprintf("core: tile %d has no accelerator port for %s", c.ID, call.Name))
		}
		c.markIssued(n)
		c.Stats.AccCalls++
		at, err := c.accel.Invoke(call.Name, call.Params, now)
		if err != nil {
			panic(fmt.Sprintf("core: tile %d: %v", c.ID, err))
		}
		c.completions.push(event{at, n})
		return true
	default:
		c.issueFixed(n, now, c.lat[n.class])
		return true
	}
}

func (c *Core) markIssued(n *dynNode) {
	c.stall = stallIssued
	n.state = stateIssued
	c.outstanding++
	c.progress++
	if c.fuLim[n.class] > 0 {
		c.fuBusy[n.class]++
	}
}

func (c *Core) issueFixed(n *dynNode, now, latency int64) {
	c.markIssued(n)
	c.completions.push(event{now + c.scaleLat(latency), n})
}

// tryIssueMem enforces MAO ordering (§II-A "Data Dependencies") and LSQ
// capacity (§III-A), then dispatches to the memory hierarchy.
func (c *Core) tryIssueMem(n *dynNode, now int64) bool {
	if c.maoInUse >= c.Cfg.LSQSize {
		c.hazard(stallMAO)
		return false
	}
	// Prune the completed prefix: complete() nils slots, so a nil entry is a
	// finished access. Compacting once the dead prefix is half the slice keeps
	// it within a small multiple of the live accesses.
	for c.maoHead < len(c.mao) && c.mao[c.maoHead] == nil {
		c.maoHead++
	}
	if c.maoHead > 64 && c.maoHead*2 > len(c.mao) {
		k := copy(c.mao, c.mao[c.maoHead:])
		for i := k; i < len(c.mao); i++ {
			c.mao[i] = nil
		}
		c.mao = c.mao[:k]
		c.maoBase += int64(c.maoHead)
		c.maoHead = 0
	}
	if c.maoOrderBlocked(n) {
		c.hazard(stallMAO)
		return false
	}
	c.markIssued(n)
	c.maoInUse++
	switch n.memKind {
	case mem.Read:
		c.Stats.Loads++
	case mem.Write:
		c.Stats.Stores++
	default:
		c.Stats.Atomics++ // MemDone adds the read-modify-write surcharge
	}
	c.memp.AccessAt(c.ID, n.addr, int(n.memSize), n.memKind, now, c, n.seq)
	return true
}

// maxParked bounds the store-value buffer occupancy.
func maxParked(maxMessages int) int {
	if maxMessages <= 0 {
		return 512
	}
	return maxMessages
}

// maoOrderBlocked applies the MAO ordering rules (§II-A): a store may not
// issue past an older incomplete access with matching or unresolved address;
// a load only checks older stores. Perfect alias speculation drops the
// unresolved-address conservatism.
func (c *Core) maoOrderBlocked(n *dynNode) bool {
	isStore := n.memKind != mem.Read
	for i := c.maoHead; i < len(c.mao); i++ {
		older := c.mao[i]
		if older == nil {
			continue // completed mid-list entry (slot cleared by complete)
		}
		if older.seq >= n.seq {
			break
		}
		olderIsStore := older.memKind != mem.Read
		if !isStore && !olderIsStore {
			continue // load vs load never conflicts
		}
		unresolved := older.state == stateWaiting && !c.Cfg.PerfectAliasSpec
		if unresolved || overlaps(older, n) {
			return true
		}
	}
	return false
}

func overlaps(a, b *dynNode) bool {
	return a.addr < b.addr+uint64(b.memSize) && b.addr < a.addr+uint64(a.memSize)
}

// Progress returns a monotone counter of state-changing events (launches,
// issues, parked stores, completions, drains, barrier arrivals). Two equal
// readings around a Step mean the step observably did nothing but charge the
// previous step's stall and record the same cause again.
func (c *Core) Progress() uint64 { return c.progress }

// NextEvent returns a lower bound on the next global cycle at which this
// tile's state can change *on its own* (pending completions, the mispredict
// launch release). Externally triggered changes — memory returns, fabric
// arrivals, barrier releases — are accounted by the owning component's
// horizon. mem.HorizonNone means no self-scheduled event.
func (c *Core) NextEvent(now int64) int64 {
	if c.finished {
		return mem.HorizonNone
	}
	h := mem.HorizonNone
	if c.completions.Len() > 0 && c.completions[0].key < h {
		h = c.completions[0].key
	}
	if c.lastDBB != nil && c.lastDBB.mispredict && c.lastDBB.termDone && now < c.launchAt && c.launchAt < h {
		h = c.launchAt
	}
	return h
}
