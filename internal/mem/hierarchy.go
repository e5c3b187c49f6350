package mem

import (
	"fmt"

	"mosaicsim/internal/config"
)

// Hierarchy wires per-core private caches to an optional shared LLC and a
// DRAM model (§V): each core has a cache queue ordered with respect to the
// hierarchy; the LLC forwards to DRAM.
type Hierarchy struct {
	cfg  config.MemConfig
	L1s  []*Cache
	L2s  []*Cache // nil when not configured
	LLC  *Cache   // nil when not configured
	DRAM Level
	// Dir is the optional coherence directory over the private stacks.
	Dir *Directory

	shared Level       // the first level below the private stacks
	simple *SimpleDRAM // DRAM when it is the simple model, else nil
	// caches lists the LLC, the L2s then the L1s, Tick's order; due[i] is
	// caches[i]'s queue-head ready time (Cache.due), so Tick and NextEvent
	// read one dense array instead of asking every cache. events is every
	// level's counter, free every level's request list and lines every
	// cache's line arena.
	caches []*Cache
	due    []int64
	events int64
	free   reqList
	lines  lineArena
}

// NewHierarchy builds the hierarchy for numCores cores at the given clock.
func NewHierarchy(cfg config.MemConfig, numCores, clockMHz int) *Hierarchy {
	if cfg.Directory && numCores > config.MaxDirectoryTiles {
		panic(fmt.Sprintf("mem: the directory tracks at most %d cores, got %d", config.MaxDirectoryTiles, numCores))
	}
	h := &Hierarchy{cfg: cfg}
	h.DRAM = NewDRAM(cfg.DRAM, clockMHz, cfg.L1.LineBytes)
	switch d := h.DRAM.(type) {
	case *SimpleDRAM:
		d.events, h.simple = &h.events, d
	case *BankedDRAM:
		d.events = &h.events
	}
	var shared Level = h.DRAM
	if cfg.LLC != nil {
		h.LLC = NewCache(*cfg.LLC, h.DRAM)
		h.caches = append(h.caches, h.LLC)
		shared = h.LLC
	}
	h.shared = shared
	if cfg.Directory {
		h.Dir = NewDirectory(cfg.DirInvCycles)
	}
	for i := 0; i < numCores; i++ {
		per := shared
		if cfg.L2 != nil {
			l2 := NewCache(*cfg.L2, shared)
			h.L2s = append(h.L2s, l2)
			per = l2
		}
		h.L1s = append(h.L1s, NewCache(cfg.L1, per))
	}
	h.caches = append(append(h.caches, h.L2s...), h.L1s...)
	h.due = make([]int64, len(h.caches))
	for i, c := range h.caches {
		h.due[i] = HorizonNone
		c.events, c.due, c.free, c.arena = &h.events, &h.due[i], &h.free, &h.lines
	}
	return h
}

// AccessAt sends a demand request from a core into its private L1 at cycle
// now; w (if non-nil) is told once, with tag, the completion cycle. With the
// directory enabled, coherence actions happen first: remote copies are
// recalled and the request is delayed by the invalidation round trip.
func (h *Hierarchy) AccessAt(core int, addr uint64, size int, kind Kind, now int64, w Waiter, tag int64) {
	if h.Dir != nil {
		lb := h.cfg.L1.LineBytes
		line := addr / uint64(lb)
		penalty, invalidate := h.Dir.Access(core, line, kind)
		for _, victim := range invalidate {
			// The directory tracks L1 lines; each private level drops every
			// line of its own size that overlaps the recalled one.
			dirty := h.L1s[victim].Invalidate(line*uint64(lb), lb)
			if victim < len(h.L2s) && h.L2s[victim].Invalidate(line*uint64(lb), lb) {
				dirty = true
			}
			if dirty {
				// The recalled dirty copy flushes to the shared level.
				wb := h.free.get()
				wb.Addr = line * uint64(lb)
				wb.Size = lb
				wb.Kind = Writeback
				h.shared.Access(wb, now)
			}
		}
		now += penalty
	}
	req := h.free.get()
	req.Addr, req.Size, req.Kind, req.Waiter, req.Tag = addr, size, kind, w, tag
	h.L1s[core].Access(req, now)
}

// Tick advances every level one cycle, DRAM first so fills propagate upward
// within the same cycle ordering each time. A cache or SimpleDRAM whose queue
// head is not yet due is not called: its Tick would do nothing (SimpleDRAM
// resets its epoch budget lazily and counts a throttled cycle only when its
// head is due). BankedDRAM is ticked every cycle.
func (h *Hierarchy) Tick(now int64) {
	if d := h.simple; d == nil || len(d.pq) > 0 && d.pq[0].ready <= now {
		h.DRAM.Tick(now)
	}
	for i := range h.due {
		if h.due[i] <= now {
			h.caches[i].Tick(now)
		}
	}
}

// Busy reports whether any level still has work in flight.
func (h *Hierarchy) Busy() bool {
	if h.DRAM.Busy() {
		return true
	}
	for _, c := range h.caches {
		if c.Busy() {
			return true
		}
	}
	return false
}

// Progress is the event counter every level counts through: a request
// accepted, processed or completed anywhere. Two equal readings mean no level
// changed observable state in between. Bandwidth throttling is not an event:
// the DRAM charges the throttled cycles a jump elides at its next tick.
func (h *Hierarchy) Progress() int64 { return h.events }

// NextEvent returns the earliest self-scheduled event across all levels
// (HorizonNone when the whole hierarchy is drained).
func (h *Hierarchy) NextEvent(now int64) int64 {
	// The caches' horizon is their earliest due time, or the next cycle when
	// one is already due (Cache.NextEvent).
	due := HorizonNone
	for _, d := range h.due {
		due = min(due, d)
	}
	return min(h.DRAM.NextEvent(now), max(due, now+1))
}

// TotalStats sums cache stats across a level slice.
func TotalStats(caches []*Cache) CacheStats {
	var t CacheStats
	for _, c := range caches {
		s := c.Stats
		t.Accesses += s.Accesses
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Coalesced += s.Coalesced
		t.MSHRStalls += s.MSHRStalls
		t.Evictions += s.Evictions
		t.Writebacks += s.Writebacks
		t.PrefetchIssued += s.PrefetchIssued
		t.PrefetchUseful += s.PrefetchUseful
		t.WritebackMisses += s.WritebackMisses
	}
	return t
}

// DRAMStatsOf extracts the stats from either DRAM model.
func DRAMStatsOf(l Level) DRAMStats {
	switch d := l.(type) {
	case *SimpleDRAM:
		return d.Stats
	case *BankedDRAM:
		return d.Stats
	}
	return DRAMStats{}
}
