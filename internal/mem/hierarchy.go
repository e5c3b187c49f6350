package mem

import "mosaicsim/internal/config"

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

	shared Level // the first level below the private stacks
}

// NewHierarchy builds the hierarchy for numCores cores at the given clock.
func NewHierarchy(cfg config.MemConfig, numCores, clockMHz int) *Hierarchy {
	h := &Hierarchy{cfg: cfg}
	h.DRAM = NewDRAM(cfg.DRAM, clockMHz, cfg.L1.LineBytes)
	var shared Level = h.DRAM
	if cfg.LLC != nil {
		h.LLC = NewCache(*cfg.LLC, h.DRAM)
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
	return h
}

// Access sends a demand request from a core into its private L1.
func (h *Hierarchy) Access(core int, addr uint64, size int, kind Kind, done func(now int64)) {
	req := getRequest()
	req.Addr, req.Size, req.Kind, req.Done = addr, size, kind, done
	h.L1s[core].Access(req, 0)
}

// AccessAt is Access with an explicit issue cycle. With the directory
// enabled, coherence actions happen first: remote copies are recalled and
// the request is delayed by the invalidation round trip.
func (h *Hierarchy) AccessAt(core int, addr uint64, size int, kind Kind, now int64, done func(now int64)) {
	if h.Dir != nil {
		line := addr / uint64(h.cfg.L1.LineBytes)
		penalty, invalidate := h.Dir.Access(core, line, kind)
		for _, victim := range invalidate {
			dirty := h.L1s[victim].Invalidate(line)
			if victim < len(h.L2s) {
				if h.L2s[victim].Invalidate(line) {
					dirty = true
				}
			}
			if dirty {
				// The recalled dirty copy flushes to the shared level.
				wb := getRequest()
				wb.Addr = line * uint64(h.cfg.L1.LineBytes)
				wb.Size = h.cfg.L1.LineBytes
				wb.Kind = Writeback
				h.shared.Access(wb, now)
			}
		}
		now += penalty
	}
	req := getRequest()
	req.Addr, req.Size, req.Kind, req.Done = addr, size, kind, done
	h.L1s[core].Access(req, now)
}

// Tick advances every level one cycle, DRAM first so fills propagate upward
// within the same cycle ordering each time.
func (h *Hierarchy) Tick(now int64) {
	h.DRAM.Tick(now)
	if h.LLC != nil {
		h.LLC.Tick(now)
	}
	for _, l2 := range h.L2s {
		l2.Tick(now)
	}
	for _, l1 := range h.L1s {
		l1.Tick(now)
	}
}

// Busy reports whether any level still has work in flight.
func (h *Hierarchy) Busy() bool {
	if h.DRAM.Busy() {
		return true
	}
	if h.LLC != nil && h.LLC.Busy() {
		return true
	}
	for _, l2 := range h.L2s {
		if l2.Busy() {
			return true
		}
	}
	for _, l1 := range h.L1s {
		if l1.Busy() {
			return true
		}
	}
	return false
}

// LineBytes returns the L1 line size.
func (h *Hierarchy) LineBytes() int { return h.cfg.L1.LineBytes }

// EnableDRAMAccessLog turns on arrival-time logging on the SimpleDRAM model
// (a no-op for other models), so a schedule recorder can later re-verify the
// bandwidth budget against shifted request timings.
func (h *Hierarchy) EnableDRAMAccessLog() {
	if d, ok := h.DRAM.(*SimpleDRAM); ok {
		d.EnableAccessLog()
	}
}

// DRAMAccessLog returns the SimpleDRAM arrival log (nil for other models or
// when logging was never enabled).
func (h *Hierarchy) DRAMAccessLog() []int64 {
	if d, ok := h.DRAM.(*SimpleDRAM); ok {
		return d.AccessLog()
	}
	return nil
}

// Progress sums the event counters of every level; two equal readings mean
// no level changed observable state in between.
func (h *Hierarchy) Progress() int64 {
	p := h.DRAM.Events()
	if h.LLC != nil {
		p += h.LLC.Events()
	}
	for _, l2 := range h.L2s {
		p += l2.Events()
	}
	for _, l1 := range h.L1s {
		p += l1.Events()
	}
	return p
}

// NextEvent returns the earliest self-scheduled event across all levels
// (HorizonNone when the whole hierarchy is drained).
func (h *Hierarchy) NextEvent(now int64) int64 {
	hz := h.DRAM.NextEvent(now)
	if h.LLC != nil {
		if e := h.LLC.NextEvent(now); e < hz {
			hz = e
		}
	}
	for _, l2 := range h.L2s {
		if e := l2.NextEvent(now); e < hz {
			hz = e
		}
	}
	for _, l1 := range h.L1s {
		if e := l1.NextEvent(now); e < hz {
			hz = e
		}
	}
	return hz
}

// ThrottleStalls reads the DRAM bandwidth-throttle counter (SimpleDRAM
// only), which advances every stalled cycle and is therefore replayed — not
// skipped — over elided cycles.
func (h *Hierarchy) ThrottleStalls() int64 {
	if d, ok := h.DRAM.(*SimpleDRAM); ok {
		return d.Stats.Throttled
	}
	return 0
}

// AddThrottleStalls replays n elided cycles of throttle accounting.
func (h *Hierarchy) AddThrottleStalls(n int64) {
	if d, ok := h.DRAM.(*SimpleDRAM); ok {
		d.AddThrottleStalls(n)
	}
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
