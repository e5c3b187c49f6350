package mem

import (
	"fmt"

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

// lineArena carves the ways of grown sets out of shared chunks, so a cache
// allocates per chunk, not per set. Every cache of one Hierarchy shares its
// arena; a Cache built alone has its own.
type lineArena struct {
	free  []cacheLine // the uncarved rest of the newest chunk
	chunk int         // the newest chunk's length
}

// Chunk lengths start at arenaFirst lines and double up to arenaLast.
const arenaFirst, arenaLast = 256, 4096

// carve returns n fresh lines with capacity n.
func (a *lineArena) carve(n int) []cacheLine {
	if len(a.free) < n {
		a.chunk = max(arenaFirst, min(2*a.chunk, arenaLast))
		a.free = make([]cacheLine, max(a.chunk, n))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
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
	// pages holds the sets, a page of pageSets consecutive sets at a time,
	// allocated when one of its sets first holds a line. A set holds only the
	// ways filled so far: a nil page or set reads as all-invalid, so a run
	// pays for the lines it holds. Ways come from arena.
	pages [][][]cacheLine
	arena *lineArena
	nsets uint64
	shift uint
	Stats CacheStats

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

	// stream prefetcher state (§V-A): a small table of detected streams;
	// consecutive same-stride line accesses on any tracked stream trigger
	// prefetches of subsequent lines. Multiple entries let interleaved
	// streams (stencil rows, multi-plane lattices) all be detected.
	streams [prefetchStreams]streamEntry
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
		Name:   cfg.Name,
		cfg:    cfg,
		next:   next,
		pages:  make([][][]cacheLine, (nsets+pageSets-1)/pageSets),
		arena:  new(lineArena),
		nsets:  uint64(nsets),
		ownDue: HorizonNone,
		free:   new(reqList),
	}
	c.events, c.due = &c.ownEvents, &c.ownDue
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.shift++
	}
	return c
}

// pageSets is the number of consecutive sets allocated together.
const pageSets = 64

func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.shift }
func (c *Cache) setOf(line uint64) uint64    { return line % c.nsets }

// Access implements Level.
func (c *Cache) Access(req *Request, now int64) {
	c.inflight++
	*c.events++
	c.enqueue(req, now+c.cfg.LatencyCycles)
}

// NextEvent implements Level: the head of the pending heap bounds the next
// self-scheduled state change. (An MSHR-full retry is re-queued at now+1, so
// a stalled cache deliberately reports an adjacent horizon: the retry itself
// mutates the queue every cycle and must be simulated, not skipped.)
func (c *Cache) NextEvent(now int64) int64 {
	if r := *c.due; r > now {
		return r
	}
	return now + 1
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
	if req.Kind == Writeback {
		// Inclusive write-back from an upper level: update the copy if
		// present, otherwise pass through.
		if cl := c.lookup(line); cl != nil {
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
	if cl := c.lookup(line); cl != nil {
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

// ways returns the filled ways of one set, nil while its page is unallocated.
func (c *Cache) ways(set uint64) []cacheLine {
	if pg := c.pages[set/pageSets]; pg != nil {
		return pg[set%pageSets]
	}
	return nil
}

// lookup returns the resident line or nil.
func (c *Cache) lookup(line uint64) *cacheLine {
	set := c.ways(c.setOf(line))
	tag := line / c.nsets
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
	idx := c.setOf(line)
	pg := c.pages[idx/pageSets]
	if pg == nil {
		// First line into this page: the last page may be short.
		first := idx / pageSets * pageSets
		pg = make([][]cacheLine, min(pageSets, c.nsets-first))
		c.pages[idx/pageSets] = pg
	}
	set := pg[idx%pageSets]
	tag := line / c.nsets
	victim := -1
	for i := range set {
		if set[i].word&lineValid == 0 {
			victim = i
			break
		}
	}
	if victim < 0 && len(set) < c.cfg.Assoc {
		if len(set) == cap(set) {
			// Grow 1, 4, 16, ... ways, at most Assoc.
			set = append(c.arena.carve(min(max(4*len(set), 1), c.cfg.Assoc))[:0], set...)
		}
		victim = len(set)
		set = set[:victim+1]
		pg[idx%pageSets] = set
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
