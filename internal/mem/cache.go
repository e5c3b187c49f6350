package mem

import (
	"fmt"
	"math/bits"

	"mosaicsim/internal/config"
)

// CacheStats counts cache events for reporting and the energy model.
type CacheStats struct {
	Accesses        int64
	Hits            int64
	Misses          int64
	Coalesced       int64 // merged into an existing MSHR
	MSHRStalls      int64 // retried because all MSHRs were busy
	Evictions       int64
	Writebacks      int64
	PrefetchIssued  int64
	PrefetchUseful  int64 // demand hits on prefetched lines
	WritebackMisses int64 // writebacks passed through to the next level
}

// HitRate returns hits / (hits + misses) for demand accesses.
func (s *CacheStats) HitRate() float64 {
	d := s.Hits + s.Misses
	if d == 0 {
		return 0
	}
	return float64(s.Hits) / float64(d)
}

// cacheLine is one way of a set. word packs the cycle of the line's last use,
// shifted past lineFlagBits, with its valid, dirty and prefetched bits; a
// run's cycles stay below soc.MaxCycleLimit, so the shift loses none.
type cacheLine struct {
	tag  uint64
	word uint64
}

const (
	lineValid uint64 = 1 << iota
	lineDirty
	linePrefetched
	lineFlagBits = iota
	lineFlags    = 1<<lineFlagBits - 1
)

// setPage indexes pageSets consecutive sets. A set's setRef names its n
// filled ways: the first n lines of block, a block of its cache's line arena
// named by chunk index << chunkBits | start.
type setPage [pageSets]setRef
type setRef struct{ block, n uint32 }

// lineArena carves the ways of grown sets out of shared chunks, so a cache
// allocates per chunk, not per set. free[k] is the name+1 (0: none) of the
// first 4^k-line block a set outgrew, each linked through its first line's
// tag; carve reuses one before it cuts a chunk. Every cache of one Hierarchy
// shares its arena; a Cache built alone has its own.
type lineArena struct {
	chunks      [][]cacheLine
	chunk, used int       // the newest chunk's length and lines carved from it
	free        [9]uint64 // 4^8 = config.MaxEntries
}

// Chunk lengths start at arenaFirst lines and double up to arenaLast, the most
// a block's start can address; a longer block gets a chunk of its own.
const arenaFirst, chunkBits, arenaLast = 256, 12, 1 << 12

// carve returns the name of an n-line block, an outgrown one when it can.
func (a *lineArena) carve(n int) uint32 {
	if k := bits.TrailingZeros(uint(n)) / 2; n == 1<<(2*k) && a.free[k] != 0 {
		b := uint32(a.free[k] - 1)
		a.free[k] = a.lines(b, 1)[0].tag
		return b
	}
	if a.used+n > a.chunk {
		if len(a.chunks) == 1<<(32-chunkBits) {
			panic("mem: line arena holds 2^20 chunks, the most a block name addresses")
		}
		a.chunk, a.used = max(arenaFirst, min(2*a.chunk, arenaLast), n), 0
		a.chunks = append(a.chunks, make([]cacheLine, a.chunk))
	}
	a.used += n
	return uint32(len(a.chunks)-1)<<chunkBits | uint32(a.used-n)
}

// release puts block b, outgrown at its n = 4^k lines, on its free list.
func (a *lineArena) release(b uint32, n int) {
	k := bits.TrailingZeros(uint(n)) / 2
	a.lines(b, 1)[0].tag = a.free[k]
	a.free[k] = uint64(b) + 1
}

// lines returns the first n lines of block b.
func (a *lineArena) lines(b uint32, n int) []cacheLine {
	start := int(b & (arenaLast - 1))
	return a.chunks[b>>chunkBits][start : start+n]
}

// mshr tracks one outstanding line fill and its waiters, a FIFO chained
// through Request.next.
type mshr struct {
	line       uint64
	head, tail *Request
	dirty      bool // a write is waiting: line fills dirty
}

// wait queues a demand request on the pending fill.
func (m *mshr) wait(req *Request) {
	if m.head == nil {
		m.head = req
	} else {
		m.tail.next = req
	}
	m.tail = req
	if req.Kind == Write || req.Kind == Atomic {
		m.dirty = true
	}
}

// Cache is one timing cache (§V-A): write-back, write-allocate, LRU,
// configurable size/line/associativity/latency, MSHR coalescing, and an
// optional stream prefetcher.
type Cache struct {
	Name string
	cfg  config.CacheConfig
	next Level
	// pages indexes the sets, pageSets consecutive sets a page, allocated
	// when one of its sets first holds a line. A set holds only the ways
	// filled so far, carved from arena: a nil page or an empty set reads as
	// all-invalid, so a run pays for the lines it holds.
	pages []*setPage
	arena *lineArena
	nsets uint64
	shift uint
	// setBits is log2(nsets) when nsets is a power of two.
	setBits uint
	Stats   CacheStats

	// inq orders pending requests by (ready, arrival seq) in a min-heap, so
	// an MSHR-stall retry due at now+1 is processed before entries with
	// larger ready times queued ahead of it. (A plain FIFO head-of-line
	// blocks such retries behind not-yet-due requests, inflating miss
	// latency, and its append/[1:] slicing made Tick O(n) under retries.)
	inq   reqHeap
	inseq int64
	// mshrs holds the live entries, unordered and searched linearly (shipped
	// configs bound them at 8 to 32).
	mshrs []mshr

	// events counts observable state changes (see Hierarchy.Progress) and due
	// mirrors the queue head's ready time (HorizonNone when empty). A cache
	// built alone points both at its own fields and has its own request list
	// and arena; a Hierarchy re-points all four at its shared ones.
	events, due       *int64
	ownEvents, ownDue int64
	free              *reqList

	// stream prefetcher state (§V-A), nil unless PrefetchDegree > 0: a small
	// table of detected streams; consecutive same-stride line accesses on any
	// tracked stream trigger prefetches of subsequent lines. Multiple entries
	// let interleaved streams (stencil rows, multi-plane lattices) be seen.
	streams *[prefetchStreams]streamEntry
	clock   int64

	inflight int // requests accepted but not yet completed/forwarded
}

// NewCache builds a cache in front of next.
func NewCache(cfg config.CacheConfig, next Level) *Cache {
	lines := cfg.SizeKB * 1024 / cfg.LineBytes
	nsets := lines / cfg.Assoc
	if nsets <= 0 || lines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("mem: cache %q geometry invalid (%d lines, %d ways)", cfg.Name, lines, cfg.Assoc))
	}
	c := &Cache{
		Name:    cfg.Name,
		cfg:     cfg,
		next:    next,
		pages:   make([]*setPage, (nsets+pageSets-1)/pageSets),
		arena:   new(lineArena),
		nsets:   uint64(nsets),
		setBits: uint(bits.TrailingZeros(uint(nsets))),
		ownDue:  HorizonNone,
		free:    new(reqList),
	}
	c.events, c.due = &c.ownEvents, &c.ownDue
	if cfg.PrefetchDegree > 0 {
		c.streams = new([prefetchStreams]streamEntry)
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.shift++
	}
	return c
}

// pageSets is the number of consecutive sets allocated together.
const pageSets = 64

func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.shift }

// split returns line's set and tag, without a division when the set count
// is a power of two.
func (c *Cache) split(line uint64) (set, tag uint64) {
	if b := c.setBits; c.nsets == 1<<b {
		return line & (c.nsets - 1), line >> b
	}
	return line % c.nsets, line / c.nsets
}

// Access implements Level.
func (c *Cache) Access(req *Request, now int64) {
	c.inflight++
	*c.events++
	c.enqueue(req, now+c.cfg.LatencyCycles)
}

// enqueue adds a request to the pending heap at its ready time.
func (c *Cache) enqueue(req *Request, ready int64) {
	c.inseq++
	c.inq.push(reqItem{ready: ready, seq: c.inseq, req: req})
	*c.due = c.inq[0].ready
}

// Busy implements Level.
func (c *Cache) Busy() bool { return c.inflight > 0 || len(c.mshrs) > 0 }

// Tick implements Level: processes up to PortsPerCycle due requests.
func (c *Cache) Tick(now int64) {
	ports := c.cfg.PortsPerCycle
	if ports <= 0 {
		ports = 1
	}
	processed := 0
	// Pop due requests in (ready, seq) order; retries re-enter the heap with
	// a future ready time so this terminates.
	for processed < ports && len(c.inq) > 0 {
		if c.inq[0].ready > now {
			break
		}
		it := c.inq.pop()
		c.process(it.req, now)
		processed++
	}
	*c.due = HorizonNone
	if len(c.inq) > 0 {
		*c.due = c.inq[0].ready
	}
}

func (c *Cache) process(req *Request, now int64) {
	*c.events++
	line := c.lineAddr(req.Addr)
	cl := c.lookup(line)
	if req.Kind == Writeback {
		// Inclusive write-back from an upper level: update the copy if
		// present, otherwise pass through.
		if cl != nil {
			cl.word = uint64(now)<<lineFlagBits | cl.word&lineFlags | lineDirty
			c.complete(req, now)
		} else {
			c.Stats.WritebackMisses++
			c.next.Access(req, now)
			c.inflight--
		}
		return
	}

	if req.Kind != Prefetch {
		c.Stats.Accesses++
	}
	if cl != nil {
		// Hit.
		cl.word = uint64(now)<<lineFlagBits | cl.word&lineFlags
		if req.Kind == Write || req.Kind == Atomic {
			cl.word |= lineDirty
		}
		if req.Kind != Prefetch {
			c.Stats.Hits++
			if cl.word&linePrefetched != 0 {
				c.Stats.PrefetchUseful++
				cl.word &^= linePrefetched
			}
		}
		c.complete(req, now)
		return
	}

	// Miss path.
	if i := c.mshrOf(line); i >= 0 {
		if req.Kind == Prefetch {
			c.complete(req, now)
			return
		}
		// Secondary miss: coalesced onto the pending fill, counted apart
		// from primary misses.
		c.Stats.Coalesced++
		// The waiter stays in flight until the pending fill completes it.
		c.mshrs[i].wait(req)
		return
	}
	if c.cfg.MSHRs > 0 && len(c.mshrs) >= c.cfg.MSHRs {
		if req.Kind == Prefetch {
			c.complete(req, now)
			return
		}
		// All MSHRs busy: retry next cycle.
		c.Stats.MSHRStalls++
		c.enqueue(req, now+1)
		return
	}

	c.mshrs = append(c.mshrs, mshr{line: line})
	wasPrefetch := req.Kind == Prefetch
	if !wasPrefetch {
		c.Stats.Misses++
		c.mshrs[len(c.mshrs)-1].wait(req)
		c.maybePrefetch(line, now)
	}
	fill := c.free.get()
	fill.Addr = line << c.shift
	fill.Size = c.cfg.LineBytes
	fill.Kind = Read
	fill.fill, fill.prefetched = c, wasPrefetch
	c.next.Access(fill, now)
	if wasPrefetch {
		// The prefetch request dead-ends here; only the fill lives on, and
		// it keeps the prefetch in flight.
		req.Finish(now)
	}
}

// mshrOf returns the index of line's pending entry, or -1.
func (c *Cache) mshrOf(line uint64) int {
	for i := range c.mshrs {
		if c.mshrs[i].line == line {
			return i
		}
	}
	return -1
}

// ways returns the filled ways of one set. A page exists only once a set of
// it filled, so the arena holds a chunk for an empty set's zero name.
func (c *Cache) ways(set uint64) []cacheLine {
	if pg := c.pages[set/pageSets]; pg != nil {
		return c.arena.lines(pg[set%pageSets].block, int(pg[set%pageSets].n))
	}
	return nil
}

// lookup returns the resident line or nil.
func (c *Cache) lookup(line uint64) *cacheLine {
	idx, tag := c.split(line)
	set := c.ways(idx)
	for i := range set {
		if set[i].tag == tag && set[i].word&lineValid != 0 {
			return &set[i]
		}
	}
	return nil
}

// fill installs a line returned by the next level and wakes its waiters. The
// victim is the first invalid way, else a new way while the set holds fewer
// than Assoc, else the least recently used: the order a set of Assoc ways,
// all invalid at first, would choose.
func (c *Cache) fill(line uint64, prefetched bool, now int64) {
	*c.events++
	idx, tag := c.split(line)
	set := c.ways(idx)
	if c.pages[idx/pageSets] == nil {
		c.pages[idx/pageSets] = new(setPage) // its first set carves below
	}
	ref := &c.pages[idx/pageSets][idx%pageSets]
	victim := -1
	for i := range set {
		if set[i].word&lineValid == 0 {
			victim = i
			break
		}
	}
	if n := int(ref.n); victim < 0 && n < c.cfg.Assoc {
		if n&(n-1) == 0 && bits.TrailingZeros(uint(n))%2 == 0 {
			// A full block (none, or 1, 4, 16, ... ways): grow ×4, at most
			// Assoc, and free the outgrown block.
			b := c.arena.carve(min(max(4*n, 1), c.cfg.Assoc))
			if n > 0 {
				copy(c.arena.lines(b, n), set)
				c.arena.release(ref.block, n)
			}
			ref.block = b
		}
		victim = n
		ref.n++
		set = c.arena.lines(ref.block, n+1)
	}
	if victim < 0 {
		oldest := set[0].word >> lineFlagBits
		victim = 0
		for i := range set {
			if u := set[i].word >> lineFlagBits; u < oldest {
				oldest = u
				victim = i
			}
		}
		c.Stats.Evictions++
		if set[victim].word&lineDirty != 0 {
			c.Stats.Writebacks++
			wb := c.free.get()
			wb.Addr = (set[victim].tag*c.nsets + idx) << c.shift
			wb.Size = c.cfg.LineBytes
			wb.Kind = Writeback
			c.next.Access(wb, now)
		}
	}
	var m mshr
	if i := c.mshrOf(line); i >= 0 {
		m = c.mshrs[i]
		c.mshrs[i] = c.mshrs[len(c.mshrs)-1]
		c.mshrs = c.mshrs[:len(c.mshrs)-1]
	}
	flags := lineValid
	if m.dirty {
		flags |= lineDirty
	}
	if prefetched {
		flags |= linePrefetched
	}
	set[victim] = cacheLine{tag: tag, word: uint64(now)<<lineFlagBits | flags}
	for w := m.head; w != nil; {
		next := w.next
		w.next = nil
		c.complete(w, now)
		w = next
	}
	if prefetched {
		c.inflight-- // the prefetch request itself
	}
}

func (c *Cache) complete(req *Request, now int64) {
	c.inflight--
	req.Finish(now)
}

const (
	prefetchStreams   = 8
	prefetchMaxStride = 8 // in lines; larger jumps are not streams
)

type streamEntry struct {
	valid   bool
	last    uint64
	stride  int64
	streak  int
	lastUse int64
}

// maybePrefetch runs the multi-stream detector on demand misses and issues
// prefetches for subsequent lines when a constant-stride chain is seen.
func (c *Cache) maybePrefetch(line uint64, now int64) {
	if c.cfg.PrefetchDegree <= 0 {
		return
	}
	c.clock++
	// Match the miss against a tracked stream.
	for i := range c.streams {
		s := &c.streams[i]
		if !s.valid {
			continue
		}
		stride := int64(line) - int64(s.last)
		if stride == 0 || stride > prefetchMaxStride || stride < -prefetchMaxStride {
			continue
		}
		if stride == s.stride {
			s.streak++
		} else {
			s.stride = stride
			s.streak = 1
		}
		s.last = line
		s.lastUse = c.clock
		if s.streak < 2 {
			return
		}
		for k := 1; k <= c.cfg.PrefetchDegree; k++ {
			target := int64(line) + stride*int64(k)
			if target < 0 {
				break
			}
			c.Stats.PrefetchIssued++
			c.inflight++
			pr := c.free.get()
			pr.Addr = uint64(target) << c.shift
			pr.Size = c.cfg.LineBytes
			pr.Kind = Prefetch
			c.enqueue(pr, now+c.cfg.LatencyCycles)
		}
		return
	}
	// No stream matched: allocate the LRU entry.
	victim := 0
	for i := range c.streams {
		if !c.streams[i].valid {
			victim = i
			break
		}
		if c.streams[i].lastUse < c.streams[victim].lastUse {
			victim = i
		}
	}
	c.streams[victim] = streamEntry{valid: true, last: line, lastUse: c.clock}
}
