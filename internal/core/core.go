package core

import (
	"fmt"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/mem"
	"mosaicsim/internal/trace"
)

// MemPort is the tile's view of the memory hierarchy (its private cache
// queue, §V).
type MemPort interface {
	Access(addr uint64, size int, kind mem.Kind, now int64, done func(int64))
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
// models (§IV-A): done is called at the invocation's completion cycle.
type AccelInvoker interface {
	Invoke(name string, params []int64, now int64, done func(int64)) error
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
	// Stall counters (cycle-grained causes sampled at issue).
	MAOStalls    int64 // memory ops delayed by MAO ordering or capacity
	FUStalls     int64 // issue attempts blocked on functional units
	WindowStalls int64 // issue attempts blocked outside the window
	CommStalls   int64 // send/recv retries
	EnergyPJ     float64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

type nodeState uint8

const (
	stateWaiting nodeState = iota
	stateReady
	stateIssued
	stateCompleted
)

// dynNode is one dynamic instruction instance (one node of a DBB). class,
// kind and free are copied from sn at launch: the hot paths never chase it.
type dynNode struct {
	sn    *StaticNode
	class config.InstrClass
	kind  OpKind
	free  bool // fused idiom: retires without issue width, FU, or latency
	state nodeState
	seq   int64 // global program order

	parentsLeft int
	dependents  []*dynNode

	dbb *dynDBB

	// memory operands from the trace
	addr    uint64
	memSize int
	memKind mem.Kind

	// communication partner from the trace
	partner int

	// barrierSeq is the fabric barrier index this node waits on; valid once
	// barrierArrived is set.
	barrierSeq     int64
	barrierArrived bool

	// maoPos is 1 + the node's absolute position in the MAO stream (0 = not
	// a memory op); complete uses it to clear the node's MAO slot so pooled
	// nodes are never scanned through stale pointers.
	maoPos int64
	// doneAdj is added to the completion cycle delivered through doneCB
	// (atomic read-modify-write extra latency).
	doneAdj int64
	// doneCB is the node's completion callback, allocated once per pooled
	// node and reused across recycles (it captures only the stable node and
	// core pointers).
	doneCB func(int64)

	// fusedLoad is the pending load whose data this send forwards (DeSC
	// terminal load buffer); nil for ordinary sends. fusedSeq is the load's
	// seq at bind time: if the pointed-at node was recycled for a younger
	// instruction the seqs no longer match and the load is treated as
	// completed (which it was, or it could not have been recycled).
	fusedLoad *dynNode
	fusedSeq  int64
	// parkable marks a recv whose value only feeds a store (DeSC store
	// value buffer): it may leave the in-order pipe and drain when the
	// message arrives.
	parkable bool
	// doneAt is the completion cycle, valid once state == stateCompleted.
	doneAt int64
	// onComplete callbacks run at completion (used by fused sends).
	onComplete []func(int64)

	// accelerator invocation from the trace
	accCall *trace.AccCall
}

// dynDBB is a dynamic basic block: one launched instance of a static block.
type dynDBB struct {
	blockID    int
	remaining  int // uncompleted nodes (live-DBB accounting)
	term       *dynNode
	termDone   bool // terminator completed (read instead of term.state, which may be recycled)
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

	// trace cursors
	bbCursor   int
	memCursor  int
	accCursor  int
	commCursor int

	lastDyn []*dynNode // latest dynamic instance per static instruction

	// sliding instruction window (ROB): unretired nodes in program order.
	window     []*dynNode
	windowHead int // index of the oldest unretired node in window

	liveDBB  []int   // static block ID -> live DBB count
	lastDBB  *dynDBB // most recently launched DBB
	launchAt int64   // earliest cycle the next DBB may launch (after penalty)

	ready eventHeap // issue-ready nodes by program order (seq)
	// issuePtr is the in-order issue cursor into window (InOrder mode).
	issuePtr int
	// pendingDrain holds the partner tiles of parked recvs (DeSC store
	// value buffer): the pipeline has moved on, the messages are consumed
	// from the fabric as they arrive.
	pendingDrain []int

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
	seqCounter  int64
	finished    bool
	finishCycle int64

	// clock scaling: fixed latencies in core cycles are converted to global
	// Interleaver cycles as lat * clockNum / clockDen (§II "tiles may run at
	// different clock speeds").
	clockNum, clockDen int64

	// progress counts state-changing events (launches, issues, completions,
	// drains, barrier arrivals). The Interleaver compares successive readings
	// to detect frozen tiles and engage event-horizon cycle skipping.
	progress uint64

	// Hot-path pools: dynamic nodes and DBBs are recycled at retire instead
	// of allocated per launch.
	freeNodes []*dynNode
	freeDBBs  []*dynDBB
	deferred  []*dynNode

	// gshare dynamic-predictor state (config.BranchDynamic).
	bpHistory  uint32
	bpCounters []uint8
}

const (
	gshareBits = 12
	gshareMask = (1 << gshareBits) - 1
)

// New builds a core tile replaying tt against the lowered program p (shared,
// read-only, by every core running the same kernel).
func New(id int, cfg config.CoreConfig, p *Program, tt *trace.TileTrace, memp MemPort, fabric Fabric, accel AccelInvoker) *Core {
	c := &Core{
		ID:       id,
		Cfg:      cfg,
		prog:     p,
		tt:       tt,
		memp:     memp,
		fabric:   fabric,
		accel:    accel,
		lastDyn:  make([]*dynNode, len(p.nodes)),
		liveDBB:  make([]int, len(p.Blocks)),
		clockNum: 1,
		clockDen: 1,
	}
	for cl := config.InstrClass(0); cl < config.NumClasses; cl++ {
		c.lat[cl], c.fuLim[cl] = cfg.Latency(cl), cfg.FULimit(cl)
	}
	// Preallocate the hot-path backing arrays from the trace length so the
	// steady state never grows them. total is the tile's dynamic instruction
	// count; small traces get exactly-sized arrays.
	total := 0
	for _, b := range tt.BBPath {
		total += p.Blocks[b].N
	}
	wcap := min(total, 2*cfg.WindowSize+64)
	c.window = make([]*dynNode, 0, wcap)
	c.freeNodes = make([]*dynNode, 0, wcap)
	c.ready = make(eventHeap, 0, min(total, cfg.WindowSize+8))
	c.completions = make(eventHeap, 0, min(total, cfg.WindowSize+8))
	c.mao = make([]*dynNode, 0, min(total, 2*cfg.LSQSize+64))
	return c
}

// Tables returns the per-class latency and functional-unit tables the core
// resolved from its config at build time.
func (c *Core) Tables() (lat [config.NumClasses]int64, fuLimit [config.NumClasses]int) {
	return c.lat, c.fuLim
}

// allocNode pops a recycled dynamic node (or allocates a fresh one), resetting
// in place every field launchOne does not overwrite unconditionally; the
// dependents/onComplete arrays and the completion callback are kept. Operand
// fields (addr, partner, accCall, ...) are only read for the op kind that sets
// them, so stale values there are never observed.
func (c *Core) allocNode() *dynNode {
	k := len(c.freeNodes)
	if k == 0 {
		return &dynNode{}
	}
	n := c.freeNodes[k-1]
	c.freeNodes = c.freeNodes[:k-1]
	n.state, n.parentsLeft, n.dependents = stateWaiting, 0, n.dependents[:0]
	n.maoPos, n.doneAdj, n.fusedLoad = 0, 0, nil
	n.barrierArrived, n.parkable = false, false
	return n
}

// recycleNode returns a retired node to the pool. Dangling references are
// severed (lastDyn) or guarded by seq checks (fusedLoad) / nil MAO slots.
func (c *Core) recycleNode(n *dynNode) {
	if c.lastDyn[n.sn.Idx] == n {
		c.lastDyn[n.sn.Idx] = nil
	}
	c.freeNodes = append(c.freeNodes, n)
}

func (c *Core) allocDBB(bid, nodes int) *dynDBB {
	if k := len(c.freeDBBs); k > 0 {
		d := c.freeDBBs[k-1]
		c.freeDBBs = c.freeDBBs[:k-1]
		*d = dynDBB{blockID: bid, remaining: nodes}
		return d
	}
	return &dynDBB{blockID: bid, remaining: nodes}
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

// Done reports whether the tile has retired its whole trace.
func (c *Core) Done() bool { return c.finished }

// FinishCycle returns the tile-local cycle at which the trace retired.
func (c *Core) FinishCycle() int64 { return c.finishCycle }

// event is a heap entry: a node keyed by its completion cycle or, in the
// ready heap, its seq. The key sits beside the pointer so sifts touch no node.
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
	if c.bbCursor >= len(c.tt.BBPath) && c.windowHead >= len(c.window) && c.completions.Len() == 0 && c.outstanding == 0 && len(c.pendingDrain) == 0 {
		c.finished = true
		c.finishCycle = now
		c.Stats.Cycles = now
		c.progress++
		return false
	}
	c.Stats.Cycles = now
	return true
}

// processCompletions retires timing events due at or before now.
func (c *Core) processCompletions(now int64) {
	for c.completions.Len() > 0 && c.completions[0].key <= now {
		ev := c.completions.pop()
		c.complete(ev.node, now)
	}
}

// complete marks a node finished, frees its resources, and wakes dependents
// (rule 2, §II-A).
func (c *Core) complete(n *dynNode, now int64) {
	if n.state == stateCompleted {
		return
	}
	n.state = stateCompleted
	n.doneAt = now
	c.outstanding--
	c.progress++
	for _, cb := range n.onComplete {
		cb(now)
	}
	n.onComplete = n.onComplete[:0]
	if !n.free {
		if c.fuLim[n.class] > 0 {
			c.fuBusy[n.class]--
		}
		if n.kind == KindMem {
			c.maoInUse--
		}
	}
	// Clear the node's MAO slot so ordering scans never chase a pointer into
	// a recycled node (slots are pruned/compacted lazily by tryIssueMem).
	if n.maoPos != 0 {
		if i := n.maoPos - 1 - c.maoBase; i >= 0 && i < int64(len(c.mao)) && c.mao[i] == n {
			c.mao[i] = nil
		}
	}
	c.Stats.Instrs++
	c.Stats.EnergyPJ += config.EnergyPerClassPJ[n.class]
	// A mispredicted terminator releases the next launch only after the
	// misprediction penalty (§III-C).
	if n == n.dbb.term {
		n.dbb.termDone = true
		if n.dbb.mispredict {
			c.launchAt = now + c.scaleLat(c.Cfg.MispredictPenalty)
		}
	}
	n.dbb.remaining--
	if n.dbb.remaining == 0 {
		c.liveDBB[n.dbb.blockID]--
		if n.dbb != c.lastDBB {
			c.freeDBBs = append(c.freeDBBs, n.dbb)
		}
	}
	for _, d := range n.dependents {
		d.parentsLeft--
		if d.parentsLeft == 0 && d.state == stateWaiting {
			d.state = stateReady
			if !c.Cfg.InOrder {
				c.ready.push(event{d.seq, d})
			}
		}
	}
}

// memDone is the callback given to the memory hierarchy. The closure is
// allocated once per pooled node and reused across recycles: it captures only
// the stable node and core pointers and reads the per-incarnation latency
// adjustment (doneAdj) at fire time.
func (c *Core) memDone(n *dynNode) func(int64) {
	if n.doneCB == nil {
		n.doneCB = func(at int64) {
			c.completions.push(event{at + n.doneAdj, n})
		}
	}
	return n.doneCB
}

// retire slides the instruction window (ROB) forward over completed nodes
// (§III-A "ROB").
func (c *Core) retire() {
	for c.windowHead < len(c.window) && c.window[c.windowHead].state == stateCompleted {
		c.recycleNode(c.window[c.windowHead])
		c.window[c.windowHead] = nil
		c.windowHead++
	}
	// Periodically compact the retired prefix in place (no fresh backing
	// array: the window reuses its allocation for the whole run).
	if c.windowHead > 4096 && c.windowHead*2 > len(c.window) {
		k := copy(c.window, c.window[c.windowHead:])
		for i := k; i < len(c.window); i++ {
			c.window[i] = nil
		}
		c.window = c.window[:k]
		c.issuePtr -= c.windowHead
		if c.issuePtr < 0 {
			c.issuePtr = 0
		}
		c.windowHead = 0
	}
}

func (c *Core) unretired() int { return len(c.window) - c.windowHead }

// windowBaseSeq returns the seq of the oldest unretired node.
func (c *Core) windowBaseSeq() int64 {
	if c.windowHead < len(c.window) {
		return c.window[c.windowHead].seq
	}
	return c.seqCounter
}

// launchDBBs launches dynamic basic blocks from the control trace (rule 3,
// §II-A) subject to speculation policy, live-DBB limits, and window space.
func (c *Core) launchDBBs(now int64) {
	launches := 0
	maxLaunch := c.Cfg.IssueWidth
	if maxLaunch < 1 {
		maxLaunch = 1
	}
	for launches < maxLaunch && c.bbCursor < len(c.tt.BBPath) {
		bid := int(c.tt.BBPath[c.bbCursor])
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
		if c.unretired() >= c.Cfg.WindowSize && c.unretired() > 0 {
			c.Stats.WindowStalls++
			return
		}
		c.launchOne(bid)
		launches++
	}
}

// launchOne stamps out the dynamic nodes of one DBB from the block's lowered
// records and binds dependence edges: intra-DBB edges to nodes of this
// instance, cross edges to the most recent dynamic instance of the producer
// (§II-A). Only what the trace decides stays dynamic: the operand cursors,
// the phi predecessor, and DeSC fusion (wait).
func (c *Core) launchOne(bid int) {
	blk := &c.prog.Blocks[bid]
	prevBlock := -1
	if c.bbCursor > 0 {
		prevBlock = int(c.tt.BBPath[c.bbCursor-1])
	}
	c.bbCursor++

	d := c.allocDBB(bid, blk.N)
	c.liveDBB[bid]++
	base := len(c.window)
	recs := c.prog.Nodes(bid)
	for pos := range recs {
		sn := &recs[pos]
		n := c.allocNode()
		n.sn, n.class, n.kind, n.free = sn, sn.Class, sn.Kind, sn.Free
		n.seq = c.seqCounter
		n.dbb = d
		c.seqCounter++
		c.window = append(c.window, n)
	}
	nodes := c.window[base:]
	d.term = nodes[blk.TermPos]

	// Bind dependencies before updating lastDyn so cross edges see the
	// previous instances (loop-carried values).
	for _, n := range nodes {
		sn := n.sn
		for _, pos := range sn.Intra {
			c.wait(n, nodes[pos], true)
		}
		for _, idx := range sn.Cross {
			c.wait(n, c.lastDyn[idx], false)
		}
		if sn.Phi != nil && prevBlock >= 0 && sn.Phi[prevBlock] >= 0 {
			c.wait(n, c.lastDyn[sn.Phi[prevBlock]], false)
		}

		switch sn.Kind {
		case KindMem:
			if c.memCursor >= len(c.tt.Mem) {
				panic(fmt.Sprintf("core: tile %d memory trace exhausted at instruction %d", c.ID, sn.Idx))
			}
			ev := c.tt.Mem[c.memCursor]
			if ev.Instr != sn.Idx {
				panic(fmt.Sprintf("core: tile %d memory trace out of sync: have instr %d, want %d", c.ID, ev.Instr, sn.Idx))
			}
			c.memCursor++
			n.addr = ev.Addr
			n.memSize = int(ev.Size)
			switch ev.Kind {
			case trace.KindLoad:
				n.memKind = mem.Read
			case trace.KindStore:
				n.memKind = mem.Write
			default:
				n.memKind = mem.Atomic
			}
			c.maoTotal++
			n.maoPos = c.maoTotal
			c.mao = append(c.mao, n)
		case KindSend, KindRecv:
			if c.commCursor >= len(c.tt.Comm) {
				panic(fmt.Sprintf("core: tile %d comm trace exhausted", c.ID))
			}
			n.partner = int(c.tt.Comm[c.commCursor].Partner)
			c.commCursor++
		case KindAcc:
			if c.accCursor >= len(c.tt.Acc) {
				panic(fmt.Sprintf("core: tile %d accelerator trace exhausted", c.ID))
			}
			n.accCall = &c.tt.Acc[c.accCursor]
			c.accCursor++
		}
	}
	for _, n := range nodes {
		c.lastDyn[n.sn.Idx] = n
		if n.parentsLeft == 0 {
			n.state = stateReady
			if !c.Cfg.InOrder {
				c.ready.push(event{n.seq, n})
			}
		}
	}

	// Branch prediction (§III-C): decide whether launching the *next* DBB
	// must wait for this terminator plus the misprediction penalty.
	if c.bbCursor < len(c.tt.BBPath) {
		actual := int(c.tt.BBPath[c.bbCursor])
		switch c.Cfg.Branch {
		case config.BranchStatic:
			d.mispredict = blk.Predicted != actual
		case config.BranchDynamic:
			d.mispredict = !c.gsharePredict(d.term.sn.Instr, actual)
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

// wait makes n depend on parent, the dynamic producer of one of its operands
// (nil when that instance already retired), unless the producer completed.
// With DeSC structures (§VII-A) two intra-DBB edges are fused away instead:
// a send forwarding a load's data (terminal load buffer) does not wait for
// the load, and a store/atomic whose value comes from a recv (store value
// buffer) lets the recv drain without stalling the core.
func (c *Core) wait(n, parent *dynNode, intra bool) {
	if parent == nil {
		return
	}
	if intra && c.Cfg.DecoupledSupply {
		if n.kind == KindSend && parent.sn.Instr.Op == ir.OpLoad {
			n.fusedLoad, n.fusedSeq = parent, parent.seq
			return
		}
		if n.kind == KindMem && n.sn.Instr.Op != ir.OpLoad && parent.kind == KindRecv {
			parent.parkable = true
			return
		}
	}
	if parent.state != stateCompleted {
		parent.dependents = append(parent.dependents, n)
		n.parentsLeft++
	}
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
	idx := (uint32(term.Idx)*2654435761 ^ c.bpHistory) & gshareMask
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
// §II-A; §III-A).
func (c *Core) issue(now int64) {
	if c.Cfg.InOrder {
		c.issueInOrder(now)
		return
	}
	issued := 0
	deferred := c.deferred[:0]
	windowLimit := c.windowBaseSeq() + int64(c.Cfg.WindowSize)
	for issued < c.Cfg.IssueWidth && c.ready.Len() > 0 {
		n := c.ready[0].node
		if n.free {
			// Fused idiom: retires instantly without consuming issue
			// bandwidth, waking dependents within this cycle.
			c.ready.pop()
			n.state = stateIssued
			c.outstanding++
			c.complete(n, now)
			continue
		}
		if n.seq >= windowLimit {
			// Oldest ready node is outside the window; all others are too.
			c.Stats.WindowStalls++
			break
		}
		c.ready.pop()
		if ok := c.tryIssue(n, now); ok {
			issued++
		} else {
			deferred = append(deferred, n)
		}
	}
	for i, n := range deferred {
		c.ready.push(event{n.seq, n})
		deferred[i] = nil
	}
	c.deferred = deferred[:0]
}

// issueInOrder models a scoreboarded in-order pipeline: instructions issue
// strictly in program order; issue stalls when the next instruction's
// operands are pending (stall-on-use), while independent younger work never
// bypasses it. Completion remains out of order (hit-under-miss), and stores
// blocked only on memory ordering park in a store buffer (the ready heap,
// unused for issue in this mode) so they drain without stalling the pipe.
func (c *Core) issueInOrder(now int64) {
	// Drain parked stores/recvs in program order; they already consumed
	// their issue slots. Stop at the first blocked one so same-channel
	// recvs keep FIFO order.
	for c.ready.Len() > 0 {
		if !c.tryIssue(c.ready[0].node, now) {
			break
		}
		c.ready.pop()
	}
	issued := 0
	for issued < c.Cfg.IssueWidth {
		if c.issuePtr < c.windowHead {
			c.issuePtr = c.windowHead
		}
		// Skip already-processed entries.
		for c.issuePtr < len(c.window) {
			n := c.window[c.issuePtr]
			if n == nil || n.state == stateIssued || n.state == stateCompleted {
				c.issuePtr++
				continue
			}
			break
		}
		if c.issuePtr >= len(c.window) {
			return
		}
		n := c.window[c.issuePtr]
		if n.parentsLeft > 0 {
			return // stall-on-use
		}
		if n.free {
			n.state = stateIssued
			c.outstanding++
			c.complete(n, now)
			c.issuePtr++
			continue
		}
		// Store-buffer semantics: a store (or atomic) blocked only on MAO
		// ordering parks and drains later instead of stalling the pipeline.
		if n.kind == KindMem && n.memKind != mem.Read &&
			c.maoInUse+c.ready.Len() < c.Cfg.LSQSize && c.maoOrderBlocked(n) {
			c.ready.push(event{n.seq, n})
			c.issuePtr++
			issued++
			continue
		}
		// Store-value-buffer semantics (DeSC, §VII-A): a recv whose data
		// only feeds a store leaves the pipeline immediately; the message
		// is consumed from the fabric whenever it arrives.
		if n.parkable && len(c.pendingDrain) < maxParked(c.Cfg.MaxMessages) {
			if !c.fabric.TryRecv(c.ID, n.partner, now) {
				c.pendingDrain = append(c.pendingDrain, n.partner)
			}
			c.Stats.Recvs++
			c.issueFixed(n, now, c.lat[config.ClassSpecial])
			c.issuePtr++
			issued++
			continue
		}
		if !c.tryIssue(n, now) {
			return // structural hazard
		}
		c.issuePtr++
		issued++
	}
}

// tryIssue attempts to issue one node; false means a structural hazard (FU,
// MAO, communication) and the node retries next cycle.
func (c *Core) tryIssue(n *dynNode, now int64) bool {
	if lim := c.fuLim[n.class]; lim > 0 && c.fuBusy[n.class] >= lim {
		c.Stats.FUStalls++
		return false
	}
	switch n.kind {
	case KindMem:
		return c.tryIssueMem(n, now)
	case KindSend:
		// A recycled fused load (seq mismatch) necessarily completed before it
		// was retired and repooled, so the plain-send path below is correct.
		if n.fusedLoad != nil && n.fusedLoad.seq == n.fusedSeq && n.fusedLoad.state != stateCompleted {
			// Terminal load buffer: reserve the slot now; the message
			// matures when the load's data returns.
			set, ok := c.fabric.TrySendFuture(c.ID, n.partner)
			if !ok {
				c.Stats.CommStalls++
				return false
			}
			n.fusedLoad.onComplete = append(n.fusedLoad.onComplete, func(t int64) { set(t) })
			c.Stats.Sends++
			c.issueFixed(n, now, c.lat[config.ClassSpecial])
			return true
		}
		if !c.fabric.TrySend(c.ID, n.partner, now) {
			c.Stats.CommStalls++
			return false
		}
		c.Stats.Sends++
		c.issueFixed(n, now, c.lat[config.ClassSpecial])
		return true
	case KindBarrier:
		if !n.barrierArrived {
			n.barrierSeq = c.fabric.BarrierArrive(c.ID)
			n.barrierArrived = true
			// Arrival is a state change other tiles observe even though this
			// tile stalls, so it must defeat idle detection.
			c.progress++
		}
		if !c.fabric.BarrierReleased(n.barrierSeq) {
			c.Stats.CommStalls++
			return false
		}
		c.issueFixed(n, now, c.lat[config.ClassSpecial])
		return true
	case KindRecv:
		if !c.fabric.TryRecv(c.ID, n.partner, now) {
			c.Stats.CommStalls++
			return false
		}
		c.Stats.Recvs++
		c.issueFixed(n, now, c.lat[config.ClassSpecial])
		return true
	case KindAcc:
		if c.accel == nil {
			panic(fmt.Sprintf("core: tile %d has no accelerator port for %s", c.ID, n.accCall.Name))
		}
		c.markIssued(n)
		c.Stats.AccCalls++
		if err := c.accel.Invoke(n.accCall.Name, n.accCall.Params, now, c.memDone(n)); err != nil {
			panic(fmt.Sprintf("core: tile %d: %v", c.ID, err))
		}
		return true
	default:
		c.issueFixed(n, now, c.lat[n.class])
		return true
	}
}

func (c *Core) markIssued(n *dynNode) {
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
		c.Stats.MAOStalls++
		return false
	}
	// Prune the completed prefix: complete() nils slots, so a nil entry is a
	// finished access.
	for c.maoHead < len(c.mao) && c.mao[c.maoHead] == nil {
		c.maoHead++
	}
	if c.maoHead > 4096 && c.maoHead*2 > len(c.mao) {
		k := copy(c.mao, c.mao[c.maoHead:])
		for i := k; i < len(c.mao); i++ {
			c.mao[i] = nil
		}
		c.mao = c.mao[:k]
		c.maoBase += int64(c.maoHead)
		c.maoHead = 0
	}
	if c.maoOrderBlocked(n) {
		c.Stats.MAOStalls++
		return false
	}
	c.markIssued(n)
	c.maoInUse++
	done := c.memDone(n)
	switch n.memKind {
	case mem.Read:
		c.Stats.Loads++
	case mem.Write:
		c.Stats.Stores++
	default:
		c.Stats.Atomics++
		// Read-modify-write surcharge, applied inside the reusable doneCB
		// instead of wrapping it in a fresh closure per access.
		n.doneAdj = c.Cfg.AtomicExtraLatency
	}
	c.memp.Access(n.addr, n.memSize, n.memKind, now, done)
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
// issues, completions, drains, barrier arrivals). Two equal readings around a
// Step mean the step observably did nothing except advance per-cycle stall
// counters.
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

// StallSnapshot captures the stall counters that advance every stalled cycle
// even when the tile's architectural state is frozen. The Interleaver
// brackets a tile's Step with snapshots and replays the constant per-step
// delta over skipped cycles so results stay bit-identical to the naive loop.
type StallSnapshot struct {
	MAO, FU, Window, Comm int64
}

// StallCounters reads the current per-cycle stall counters.
func (c *Core) StallCounters() StallSnapshot {
	return StallSnapshot{c.Stats.MAOStalls, c.Stats.FUStalls, c.Stats.WindowStalls, c.Stats.CommStalls}
}

// AddStallCycles replays the per-step stall delta d for k elided steps.
func (c *Core) AddStallCycles(d StallSnapshot, k int64) {
	c.Stats.MAOStalls += d.MAO * k
	c.Stats.FUStalls += d.FU * k
	c.Stats.WindowStalls += d.Window * k
	c.Stats.CommStalls += d.Comm * k
}

// Sub returns the element-wise difference a - b.
func (a StallSnapshot) Sub(b StallSnapshot) StallSnapshot {
	return StallSnapshot{a.MAO - b.MAO, a.FU - b.FU, a.Window - b.Window, a.Comm - b.Comm}
}
