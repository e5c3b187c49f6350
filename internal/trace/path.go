package trace

// CFG is a kernel's control flow as a path walks it: per block ID, its
// terminator's successors in target order, -1 where it has fewer than two
// (ret has none, br one, condbr two). Block 0 is the entry.
type CFG [][2]int32

// Path is a tile's control-flow path as the run decided it: one bit per
// executed condbr, the index into its targets of the successor taken, lowest
// bit first in byte chunks. The kernel fixes the rest: the path starts at
// block 0, follows each br and ends at the first ret.
type Path struct {
	chunks
	n, bits int // blocks entered, decisions recorded
}

// Enter counts one block entered.
func (p *Path) Enter() { p.n++ }

// Branch records that a condbr took its successor Targets[bit].
func (p *Path) Branch(bit uint) {
	if p.bits&7 == 0 {
		p.appendByte(0)
	}
	p.cur[len(p.cur)-1] |= byte(bit) << (p.bits & 7)
	p.bits++
}

// Len returns the number of blocks on the path.
func (p *Path) Len() int { return p.n }

// Bits returns the number of decisions on the path.
func (p *Path) Bits() int { return p.bits }

// Walk returns a reader of the path's blocks over its kernel's cfg.
func (p *Path) Walk(cfg CFG) Walk { return Walk{cfg: cfg, p: p, next: int32(min(p.n, 1) - 1)} }

// Count adds one to counts[b] for each block b of the path walked over cfg,
// in one loop with no call per block. The path must pass core's Check, or
// Count may not return.
func (p *Path) Count(cfg CFG, counts []int) {
	var ch []byte // the rest of chunk ci-1
	b, x, ci := int32(min(p.n, 1)-1), byte(0), 0
	for pos := 0; b >= 0; {
		counts[b]++
		switch s := &cfg[b]; {
		case s[1] < 0:
			b = s[0]
		case pos == p.bits:
			return
		default:
			if pos&7 == 0 {
				if len(ch) == 0 {
					ch, ci = p.chunk(ci), ci+1
				}
				x, ch = ch[0], ch[1:]
			}
			b, x = s[x&1], x>>1
			pos++
		}
	}
}

// Walk reads a path's blocks front to back over its kernel's CFG, one block
// ahead: Peek is a field read, and Next loads the next block's successors and
// at a condbr reads one bit. It ends after a ret, or at a condbr with no bit
// left.
type Walk struct {
	cfg  CFG
	p    *Path
	pos  int    // decisions read
	ci   uint32 // the next byte is p.chunk(ci)[off]
	off  int32
	next int32 // the block Next returns, -1 past the end
	b    byte  // the current byte, shifted to its next bit
}

// Peek returns the next block without consuming it; ok is false at the end.
func (w *Walk) Peek() (b int, ok bool) { return int(w.next), w.next >= 0 }

// Next consumes and returns the next block; ok is false at the end.
func (w *Walk) Next() (b int, ok bool) {
	b = int(w.next)
	if b < 0 {
		return b, false
	}
	switch s := &w.cfg[b]; {
	case s[1] < 0:
		w.next = s[0]
	case w.pos == w.p.bits:
		w.next = -1
	default:
		if w.pos&7 == 0 { // the byte holding the next eight bits
			if int(w.off) == len(w.p.chunk(int(w.ci))) {
				w.ci, w.off = w.ci+1, 0
			}
			w.b, w.off = w.p.chunk(int(w.ci))[w.off], w.off+1
		}
		w.next, w.b = s[w.b&1], w.b>>1
		w.pos++
	}
	return b, true
}
