package ir

import "fmt"

// loopUnroll replicates innermost loop bodies Factor times. The transform
// needs no trip-count analysis because every copy keeps its exit check: the
// original header's conditional branch is cloned into each copy, so the loop
// can still exit after any iteration. What unrolling buys is a longer
// straight-line region for the cse pass that follows it in O2 and a different
// dynamic-basic-block shape for the timing model — exactly the software axis
// an opt-level sweep explores.
//
// Only loops with a simple, provably safe shape are unrolled:
//
//   - natural loop of a single back edge latch→header, latch ending in an
//     unconditional branch;
//   - the header ends in a condbr whose sole loop-exiting edge is the loop's
//     only exit, and the exit block's only predecessor is the header;
//   - every loop block is dominated by the header and branches only within
//     the loop (no breaks, no returns);
//   - innermost only (no nested back edges), and bounded total growth.
//
// Loop-defined values used after the loop are first rewritten into LCSSA
// phis in the exit block, which then pick up one incoming edge per cloned
// header alongside any pre-existing exit phis.
type loopUnroll struct {
	// Factor is the total iteration count per unrolled body copy (>= 2).
	Factor int
}

// maxUnrollGrowth caps the instructions added per function by this pass.
const maxUnrollGrowth = 2048

func (p *loopUnroll) Name() string { return "unroll" }

func (p *loopUnroll) Run(f *Function) bool {
	if p.Factor < 2 {
		return false
	}
	changed := false
	done := map[*Block]bool{}
	budget := maxUnrollGrowth
	// Unrolling one loop invalidates the CFG analysis, so loops are found
	// and transformed one at a time, headers marked done to guarantee
	// termination (clones never introduce candidates with an unmarked
	// original header except inner copies, which the growth budget bounds).
	for iter := 0; iter < 64; iter++ {
		f.assignIDs()
		cfg := BuildCFG(f)
		cand := findUnrollable(f, cfg, done, (p.Factor - 1), budget)
		if cand == nil {
			return changed
		}
		done[cand.header] = true
		budget -= cand.size * (p.Factor - 1)
		unrollOne(f, cand, p.Factor)
		changed = true
	}
	return changed
}

// unrollCandidate describes one loop that passed every safety check.
type unrollCandidate struct {
	header *Block
	latch  *Block
	exit   *Block
	blocks []*Block // loop blocks in layout order (header first)
	inLoop map[*Block]bool
	size   int // instruction count across the loop
}

// findUnrollable scans blocks in layout order for the first loop meeting the
// shape restrictions, whose cloned growth fits the remaining budget.
func findUnrollable(f *Function, cfg *CFG, done map[*Block]bool, copies, budget int) *unrollCandidate {
	for _, h := range f.Blocks {
		if done[h] || !cfg.Reachable(h) {
			continue
		}
		term := h.Terminator()
		if term == nil || term.Op != OpCondBr {
			continue
		}
		preds := cfg.Preds[h.ID]
		if len(preds) != 2 {
			continue
		}
		var latch *Block
		backEdges := 0
		for _, pp := range preds {
			if cfg.Reachable(pp) && cfg.Dominates(h, pp) {
				latch = pp
				backEdges++
			}
		}
		if backEdges != 1 || latch == h {
			continue
		}
		if lt := latch.Terminator(); lt == nil || lt.Op != OpBr {
			continue
		}
		// Natural loop of the back edge: blocks reaching the latch without
		// passing the header.
		inLoop := map[*Block]bool{h: true}
		work := []*Block{latch}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if inLoop[b] {
				continue
			}
			inLoop[b] = true
			work = append(work, cfg.Preds[b.ID]...)
		}
		cand := &unrollCandidate{header: h, latch: latch, inLoop: inLoop}
		if !checkUnrollShape(f, cfg, cand, term) {
			continue
		}
		if cand.size*copies > budget {
			continue
		}
		return cand
	}
	return nil
}

// checkUnrollShape validates every structural restriction on cand, filling
// in its exit, ordered block list, and size.
func checkUnrollShape(f *Function, cfg *CFG, cand *unrollCandidate, term *Instr) bool {
	h, latch, inLoop := cand.header, cand.latch, cand.inLoop
	// The header's condbr must have exactly one in-loop target; the other is
	// the loop's sole exit.
	switch t0, t1 := inLoop[term.Targets[0]], inLoop[term.Targets[1]]; {
	case t0 && !t1:
		cand.exit = term.Targets[1]
	case t1 && !t0:
		cand.exit = term.Targets[0]
	default:
		return false
	}
	if ep := cfg.Preds[cand.exit.ID]; len(ep) != 1 || ep[0] != h {
		return false
	}
	for _, b := range f.Blocks {
		if !inLoop[b] {
			continue
		}
		cand.blocks = append(cand.blocks, b)
		cand.size += len(b.Instrs)
		if !cfg.Reachable(b) || !cfg.Dominates(h, b) {
			return false
		}
		t := b.Terminator()
		if t == nil {
			return false
		}
		for _, s := range t.Targets {
			if !inLoop[s] && !(b == h && s == cand.exit) {
				return false // a second exit (break or return)
			}
			if s == h && b != latch {
				return false // a second back edge
			}
			// Innermost only: a branch to an in-loop dominator that is not
			// the loop's own back edge marks a nested loop.
			if inLoop[s] && s != h && cfg.Dominates(s, b) {
				return false
			}
		}
		if t.Op == OpRet {
			return false
		}
	}
	return true
}

// unrollOne rewrites one validated loop in place with factor k.
func unrollOne(f *Function, cand *unrollCandidate, k int) {
	h, latch, exit := cand.header, cand.latch, cand.exit

	// Header phis and their back-edge values drive the copy-to-copy value
	// flow; record the latch entry index of each.
	type headerPhi struct {
		phi      *Instr
		latchIdx int
		next     Value // value flowing along the back edge
	}
	var phis []headerPhi
	for _, in := range h.Instrs {
		if in.Op != OpPhi {
			break
		}
		for j, from := range in.Incoming {
			if from == latch {
				phis = append(phis, headerPhi{phi: in, latchIdx: j, next: in.Args[j]})
				break
			}
		}
	}

	// LCSSA: route every outside-the-loop use of a loop-defined value
	// through a phi in the exit block, so cloned headers can contribute
	// their own copy of the value. Uses inside exit phis along the edge
	// from the header stay put — the cloning step extends those directly.
	insertAt := 0
	for insertAt < len(exit.Instrs) && exit.Instrs[insertAt].Op == OpPhi {
		insertAt++
	}
	lcssa := map[*Instr]*Instr{}
	lcssaFor := func(d *Instr) *Instr {
		if p, ok := lcssa[d]; ok {
			return p
		}
		p := &Instr{
			Op: OpPhi, Ty: d.Ty, Ident: d.Ident + ".lcssa",
			Args: []Value{d}, Incoming: []*Block{h}, Parent: exit,
		}
		exit.Instrs = append(exit.Instrs[:insertAt], append([]*Instr{p}, exit.Instrs[insertAt:]...)...)
		insertAt++
		lcssa[d] = p
		return p
	}
	for _, b := range f.Blocks {
		if cand.inLoop[b] {
			continue
		}
		// Snapshot: lcssaFor inserts phis into exit.Instrs mid-walk, and an
		// in-place append would shift later instructions past the ranged
		// length, silently skipping their uses.
		instrs := append([]*Instr(nil), b.Instrs...)
		for _, in := range instrs {
			if _, isNew := lcssa[in]; isNew {
				continue // the lcssa phis themselves keep their loop operand
			}
			for j, a := range in.Args {
				d, ok := a.(*Instr)
				if !ok || !cand.inLoop[d.Parent] {
					continue
				}
				if in.Op == OpPhi && cand.inLoop[in.Incoming[j]] {
					continue // exit-phi entry along the header edge
				}
				in.Args[j] = lcssaFor(d)
			}
		}
	}

	// Original incoming values of the exit phis along the header edge, to be
	// re-resolved per copy.
	type exitPhi struct {
		phi *Instr
		v   Value
	}
	var exitPhis []exitPhi
	for _, in := range exit.Instrs {
		if in.Op != OpPhi {
			break
		}
		for j, from := range in.Incoming {
			if from == h {
				exitPhis = append(exitPhis, exitPhi{phi: in, v: in.Args[j]})
				break
			}
		}
	}

	resolve := func(m map[Value]Value, v Value) Value {
		if nv, ok := m[v]; ok {
			return nv
		}
		return v
	}

	prevVals := map[Value]Value{}
	var cloneHeaders, cloneLatches []*Block
	for i := 1; i < k; i++ {
		vals := map[Value]Value{}
		blocks := map[*Block]*Block{}
		// The copy's header has no phis: each header phi resolves to the
		// value the previous copy sends along its back edge.
		for _, hp := range phis {
			vals[hp.phi] = resolve(prevVals, hp.next)
		}
		// Pass 1: clone shells so forward references (phi back edges of the
		// original loop body's internal joins) resolve.
		for _, b := range cand.blocks {
			nb := &Block{Ident: fmt.Sprintf("%s.u%d", b.Ident, i), Parent: f}
			blocks[b] = nb
			for _, in := range b.Instrs {
				if b == h && in.Op == OpPhi {
					continue
				}
				ident := in.Ident
				if ident != "" {
					ident = fmt.Sprintf("%s.u%d", ident, i)
				}
				shell := &Instr{
					Op: in.Op, Ty: in.Ty, Ident: ident, Pred: in.Pred,
					Cast: in.Cast, Scale: in.Scale, Callee: in.Callee,
				}
				nb.append(shell)
				vals[in] = shell
			}
		}
		// Pass 2: fill operands, phi incomings, and branch targets.
		for _, b := range cand.blocks {
			nb := blocks[b]
			src := b.Instrs
			if b == h {
				src = src[len(phis):]
			}
			for j, in := range src {
				cl := nb.Instrs[j]
				cl.Args = make([]Value, len(in.Args))
				for ai, a := range in.Args {
					cl.Args[ai] = resolve(vals, a)
				}
				if len(in.Incoming) > 0 {
					cl.Incoming = make([]*Block, len(in.Incoming))
					for bi, from := range in.Incoming {
						cl.Incoming[bi] = blocks[from]
					}
				}
				if len(in.Targets) > 0 {
					cl.Targets = make([]*Block, len(in.Targets))
					for ti, tgt := range in.Targets {
						switch {
						case b == latch && tgt == h:
							// The copy's latch provisionally branches back to
							// the original header; the next copy (or the
							// final stitch) re-targets the previous latch.
							cl.Targets[ti] = h
						case tgt == exit:
							cl.Targets[ti] = exit
						default:
							cl.Targets[ti] = blocks[tgt]
						}
					}
				}
			}
		}
		cloneHeaders = append(cloneHeaders, blocks[h])
		cloneLatches = append(cloneLatches, blocks[latch])
		// The cloned header still exits the loop; extend every exit phi with
		// this copy's edge.
		for _, ep := range exitPhis {
			ep.phi.Args = append(ep.phi.Args, resolve(vals, ep.v))
			ep.phi.Incoming = append(ep.phi.Incoming, blocks[h])
		}
		for _, b := range cand.blocks {
			f.Blocks = append(f.Blocks, blocks[b])
		}
		prevVals = vals
	}
	// Chain the copies only now: each latch falls through into the next
	// copy's header. Rewiring during cloning would corrupt later copies,
	// which clone the original latch's terminator. The final copy's latch
	// already branches back to the original header from cloning.
	chain := latch
	for i, ch := range cloneHeaders {
		chain.Terminator().Targets[0] = ch
		chain = cloneLatches[i]
	}
	// Stitch the final copy's back edge into the original header.
	for _, hp := range phis {
		hp.phi.Incoming[hp.latchIdx] = cloneLatches[len(cloneLatches)-1]
		hp.phi.Args[hp.latchIdx] = resolve(prevVals, hp.next)
	}
}
