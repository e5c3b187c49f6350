package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/mem"
	"mosaicsim/internal/trace"
)

// OpKind selects a static node's launch and issue path: which trace cursor
// it consumes when its DBB launches and what issuing it does.
type OpKind uint8

// Op kinds. The zero value is every instruction not listed.
const (
	KindPlain   OpKind = iota // fixed class latency, nothing from the trace
	KindMem                   // load/store/atomic: one traced address
	KindSend                  // one traced partner
	KindRecv                  // one traced partner
	KindBarrier               // fabric barrier
	KindAcc                   // accelerator invocation: one acc-trace event
)

var callKinds = map[string]OpKind{"send": KindSend, "recv": KindRecv, "barrier": KindBarrier}
var memKinds = map[ir.Opcode]mem.Kind{ir.OpLoad: mem.Read, ir.OpStore: mem.Write, ir.OpAtomicAdd: mem.Atomic}

func kindOf(in *ir.Instr) OpKind {
	switch {
	case in.IsMemory():
		return KindMem
	case in.Op != ir.OpCall:
		return KindPlain
	case len(in.Callee) > 4 && strings.HasPrefix(in.Callee, "acc_"):
		return KindAcc
	}
	return callKinds[in.Callee]
}

// StaticNode is one instruction lowered for the timing core: what launchOne
// used to re-derive per dynamic instance is resolved here once.
type StaticNode struct {
	Instr *ir.Instr
	Idx   int32 // static layout index (Instr.Idx)
	Class config.InstrClass
	Kind  OpKind
	Free  bool // fused idiom (Core.SetFreeInstrs)
	// MemSize and MemKind (KindMem only) are the access's width in bytes and
	// the request it makes: the trace holds only its address.
	MemSize uint8
	// Producers, in operand order: Intra by position within the same DBB,
	// Cross by static index (bound to the latest dynamic instance).
	Intra, Cross []int32
	// Wake lists the positions of this node's consumers within the same DBB,
	// one entry per Intra edge naming it: every instance's intra-block
	// dependents, known before any of them exists.
	Wake []int32
	// Fused and Parkable are set only in a DeSC core's program copy
	// (withDeSC): Fused is 1 + the position of the load whose data this send
	// forwards (0 = an ordinary send); Parkable marks a recv whose value only
	// feeds a store, which may leave the in-order pipe and drain later.
	Fused    int32
	Parkable bool
	MemKind  mem.Kind
	// MemSlot (KindMem only) numbers the kernel's memory instructions densely:
	// a core decodes the access's address against its slot's last one.
	MemSlot uint16
	// Phi (phi nodes only) maps a predecessor block ID to the static index
	// of the producer on that edge, -1 for a constant, parameter or global.
	Phi []int32
}

// Block is one basic block: nodes [First, First+N) of its Program.
type Block struct {
	First, N, TermPos int
	Barriers          int // barrier ops in the block
}

// Program is a kernel's DDG lowered into flat records, built once per graph
// per system and shared read-only by every core replaying that kernel.
type Program struct {
	Blocks   []Block      // by block ID
	CFG      trace.CFG    // each block's successors, by block ID: what a path walks
	nodes    []StaticNode // by static index
	memSlots int          // memory instructions: the MemSlots handed out
}

// Nodes returns block b's records.
func (p *Program) Nodes(b int) []StaticNode {
	return p.nodes[p.Blocks[b].First : p.Blocks[b].First+p.Blocks[b].N]
}

// Check walks tt's streams the way launching its blocks on p consumes them,
// without timing, and reports the first way a replay would go wrong: path
// bits p's kernel does not consume exactly (a condbr with no bit left, or
// bits left after the ret), a block or instruction count other than the
// trace's, a partner outside [0, tiles), an accelerator call to another
// intrinsic or arity, or any stream element missing or left over. Streams
// name no instructions, so only exact consumption keeps them in step: one
// address inserted mid-stream shifts every later one and leaves one over.
// The walk stops past DynInstrs instructions, and at more blocks in a row
// without a decision than the kernel has (a cycle of brs), so no path makes
// it hang. A trace recorded from p's kernel always passes; a damaged file
// may not.
func (p *Program) Check(tt *trace.TileTrace, tiles int) error {
	addrs, comm, acc := tt.Mem.Len(), tt.Comm.Cursor(), tt.Acc
	instrs, blocks, bits, run := int64(0), 0, 0, 0
	for path := tt.BBPath.Walk(p.CFG); ; {
		b, ok := path.Next()
		if !ok {
			break
		}
		blocks++
		if p.CFG[b][1] >= 0 { // the walk ends here when no bit is left
			bits, run = bits+1, 0
		} else if run++; run > len(p.Blocks) {
			return fmt.Errorf("path loops through block %d without a decision", b)
		}
		if instrs += int64(p.Blocks[b].N); instrs > tt.DynInstrs {
			return fmt.Errorf("path runs more than the trace's %d instructions", tt.DynInstrs)
		}
		for _, sn := range p.Nodes(b) {
			switch sn.Kind {
			case KindMem:
				if addrs--; addrs < 0 {
					return fmt.Errorf("memory trace exhausted at instruction %d", sn.Idx)
				}
			case KindSend, KindRecv:
				if partner, ok := comm.Next(); !ok || partner >= uint64(tiles) {
					return fmt.Errorf("comm trace out of sync at instruction %d", sn.Idx)
				}
			case KindAcc:
				if len(acc) == 0 || acc[0].Name != sn.Instr.Callee || len(acc[0].Params) != len(sn.Instr.Args) {
					return fmt.Errorf("accelerator trace out of sync at instruction %d", sn.Idx)
				}
				acc = acc[1:]
			}
		}
	}
	switch _, extra := comm.Next(); {
	case blocks == 0:
		return errors.New("empty path")
	case bits != tt.BBPath.Bits():
		return fmt.Errorf("path runs %d condbrs, the trace holds %d bits", bits, tt.BBPath.Bits())
	case blocks != tt.BBPath.Len():
		return fmt.Errorf("path runs %d blocks, the trace counts %d", blocks, tt.BBPath.Len())
	case instrs != tt.DynInstrs:
		return fmt.Errorf("path runs %d instructions, the trace counts %d", instrs, tt.DynInstrs)
	case addrs > 0 || extra || len(acc) > 0:
		return errors.New("trace longer than its path: an address, comm partner or accelerator call is left over")
	}
	return nil
}

// Lower resolves everything static about g into a Program.
func Lower(g *ddg.Graph) *Program {
	nb := len(g.Blocks)
	edges := 0
	for _, bg := range g.Blocks {
		for i := range bg.Nodes {
			edges += len(bg.Nodes[i].Deps)
			if bg.Nodes[i].Instr.Op == ir.OpPhi {
				edges += nb
			}
		}
	}
	// One backing array for every dependence list of the program.
	arena := make([]int32, 0, edges)
	p := &Program{Blocks: make([]Block, nb), CFG: make(trace.CFG, nb), nodes: make([]StaticNode, g.Fn.NumInstrs())}
	for b, bg := range g.Blocks {
		p.CFG[b] = [2]int32{-1, -1}
		for i, t := range bg.Nodes[bg.TermPos].Instr.Targets {
			p.CFG[b][i] = int32(t.ID)
		}
		first := bg.Nodes[0].Instr.Idx
		blk := &p.Blocks[b]
		*blk = Block{First: first, N: len(bg.Nodes), TermPos: bg.TermPos}
		for pos := range bg.Nodes {
			dn := &bg.Nodes[pos]
			sn := &p.nodes[first+pos]
			*sn = StaticNode{Instr: dn.Instr, Idx: int32(dn.Instr.Idx), Class: Classify(dn.Instr), Kind: kindOf(dn.Instr)}
			if sn.Kind == KindBarrier {
				blk.Barriers++
			}
			if sn.Kind == KindMem {
				if p.memSlots > math.MaxUint16 {
					panic(fmt.Sprintf("core: kernel @%s has more than %d memory instructions", g.Fn.Ident, math.MaxUint16+1))
				}
				sn.MemSize, sn.MemKind, sn.MemSlot = uint8(dn.Instr.AccessType().Size()), memKinds[dn.Instr.Op], uint16(p.memSlots)
				p.memSlots++
			}
			if dn.Instr.Op == ir.OpPhi {
				sn.Phi = arena[len(arena) : len(arena)+nb : len(arena)+nb]
				arena = arena[:len(arena)+nb]
				for i := range sn.Phi {
					sn.Phi[i] = -1
				}
				for _, pc := range dn.PhiCases {
					if pc.Dep != nil {
						sn.Phi[pc.FromBlock] = int32(pc.Dep.Instr)
					}
				}
				continue
			}
			start := len(arena)
			for _, d := range dn.Deps {
				if d.Kind == ddg.DepIntra {
					arena = append(arena, int32(d.Instr-first))
				}
			}
			sn.Intra = arena[start:len(arena):len(arena)]
			start = len(arena)
			for _, d := range dn.Deps {
				if d.Kind == ddg.DepCross {
					arena = append(arena, int32(d.Instr))
				}
			}
			sn.Cross = arena[start:len(arena):len(arena)]
		}
	}
	p.linkWake()
	return p
}

// linkWake derives every node's Wake list from the Intra lists.
func (p *Program) linkWake() {
	fanout, edges := make([]int, len(p.nodes)), 0
	for b, blk := range p.Blocks {
		for _, sn := range p.Nodes(b) {
			for _, from := range sn.Intra {
				fanout[blk.First+int(from)]++
				edges++
			}
		}
	}
	// One backing array, cut into exact-capacity lists that append fills.
	arena := make([]int32, edges)
	for i := range p.nodes {
		p.nodes[i].Wake, arena = arena[:0:fanout[i]], arena[fanout[i]:]
	}
	for b := range p.Blocks {
		recs := p.Nodes(b)
		for pos := range recs {
			for _, from := range recs[pos].Intra {
				recs[from].Wake = append(recs[from].Wake, int32(pos))
			}
		}
	}
}

// withDeSC returns the copy of p a DecoupledSupply core replays (§VII-A):
// two kinds of intra-DBB edge are fused away, which is static. A send
// forwarding a load's data (terminal load buffer) does not wait for the load,
// and a store/atomic whose value comes from a recv (store value buffer) lets
// the recv drain without stalling the core.
func (p *Program) withDeSC() *Program {
	q := &Program{Blocks: p.Blocks, CFG: p.CFG, nodes: append([]StaticNode(nil), p.nodes...), memSlots: p.memSlots}
	for b := range q.Blocks {
		recs := q.Nodes(b)
		for pos := range recs {
			sn := &recs[pos]
			var kept []int32
			for _, from := range sn.Intra {
				switch prod := &recs[from]; {
				case sn.Kind == KindSend && prod.Instr.Op == ir.OpLoad:
					sn.Fused = from + 1
				case sn.Kind == KindMem && sn.Instr.Op != ir.OpLoad && prod.Kind == KindRecv:
					prod.Parkable = true
				default:
					kept = append(kept, from)
				}
			}
			sn.Intra = kept
		}
	}
	q.linkWake()
	return q
}

// withFree returns a copy of p whose nodes carry mask (by static index) as
// their Free bits; blocks and dependence lists stay shared.
func (p *Program) withFree(mask []bool) *Program {
	q := &Program{Blocks: p.Blocks, CFG: p.CFG, nodes: append([]StaticNode(nil), p.nodes...), memSlots: p.memSlots}
	for i := range q.nodes {
		q.nodes[i].Free = i < len(mask) && mask[i]
	}
	return q
}

// staticPrediction implements the static predictor (§III-C) for block b with
// successors s: backward branches (loops) predicted taken toward the
// lower-numbered block, forward branches predicted fall-through (the nearer,
// lexically next block). A br predicts its target, a ret -1.
func staticPrediction(s [2]int32, b int) int {
	if t0, t1 := int(s[0]), int(s[1]); t1 >= 0 && t0 > b && (t1 <= b || t1 < t0) {
		return t1
	}
	return int(s[0])
}
