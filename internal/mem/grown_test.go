package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"mosaicsim/internal/config"
)

// access is one recorded demand access of a driven hierarchy or cache.
type access struct {
	at   int64
	core int
	addr uint64
	kind Kind
}

// recordedStream returns n accesses by cores tiles over span bytes, a few per
// cycle with idle stretches between bursts, mixing reads, writes and atomics.
func recordedStream(seed int64, n, cores int, span uint64) []access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]access, n)
	now := int64(0)
	for i := range out {
		switch r := rng.Intn(10); {
		case r < 5:
		case r < 9:
			now += int64(rng.Intn(4))
		default:
			now += int64(rng.Intn(400))
		}
		out[i] = access{at: now, core: rng.Intn(cores), addr: uint64(rng.Int63n(int64(span))) &^ 7, kind: []Kind{Read, Read, Write, Atomic}[rng.Intn(4)]}
	}
	return out
}

// completions is a Waiter recording each request's completion cycle at the
// index its tag names.
type completions []int64

func (c completions) MemDone(tag, at int64) { c[tag] = at }

// fixedWays pre-grows every set of c to Assoc invalid ways through the set
// index: the layout of a cache of fixed ways, the oracle of TestGrownCacheSets.
func fixedWays(c *Cache) {
	for set := range int(c.nsets) {
		if c.pages[set/pageSets] == nil {
			c.pages[set/pageSets] = new(setPage)
		}
		c.pages[set/pageSets][set%pageSets] = setRef{block: c.arena.carve(c.cfg.Assoc), n: uint32(c.cfg.Assoc)}
	}
}

// checkBlocks fails unless every set of caches holds at most Assoc ways, and
// the blocks the sets hold and the blocks on a's free lists each lie inside
// their chunk and overlap nowhere. It returns the free blocks' names.
func checkBlocks(t *testing.T, a *lineArena, caches ...*Cache) map[uint32]bool {
	t.Helper()
	held := make([][]bool, len(a.chunks))
	for i, ch := range a.chunks {
		held[i] = make([]bool, len(ch))
	}
	claim := func(b uint32, n int) {
		ch, start := int(b>>chunkBits), int(b&(arenaLast-1))
		if ch >= len(held) || start+n > len(held[ch]) {
			t.Fatalf("block %#x of %d lines lies outside the arena's chunks", b, n)
		}
		for i := start; i < start+n; i++ {
			if held[ch][i] {
				t.Fatalf("block %#x of %d lines overlaps another block", b, n)
			}
			held[ch][i] = true
		}
	}
	free := map[uint32]bool{}
	for k, b := range a.free {
		for ; b != 0; b = a.lines(uint32(b-1), 1)[0].tag {
			free[uint32(b-1)] = true
			claim(uint32(b-1), 1<<(2*k))
		}
	}
	for _, c := range caches {
		for _, pg := range c.pages {
			if pg == nil {
				continue
			}
			for _, r := range pg {
				if int(r.n) > c.cfg.Assoc {
					t.Fatalf("%s: a set holds %d ways, more than its %d", c.Name, r.n, c.cfg.Assoc)
				}
				if size := 1; r.n > 0 {
					for size < int(r.n) {
						size = min(4*size, c.cfg.Assoc)
					}
					claim(r.block, size)
				}
			}
		}
	}
	return free
}

// TestGrownCacheSets: a set holds only the ways filled into it, grown 1, 4,
// 16, ... up to Assoc from its hierarchy's line arena, and a page of the set
// index is allocated on the first fill into it. An untouched set reads as all
// invalid — lookups miss, Invalidate finds nothing, neither allocates — and a
// cache whose every set is pre-grown to Assoc invalid ways (the fixed-way
// layout) behaves identically under the same accesses and directory recalls,
// the recalls landing on sets mid-growth. At config.MaxEntries ways a set
// outgrows the arena's largest chunk into one of its own; in a hierarchy, one
// cache carves the blocks another outgrew.
func TestGrownCacheSets(t *testing.T) {
	for _, tc := range []struct {
		nsets, sizeKB, assoc int
		// n accesses over span bytes (0: four times the size, at most 256
		// KiB), a recall every recall cycles, mshrs MSHRs. The widest set
		// grows past 4,096 lines through few recalls and no MSHR stalls,
		// because every miss and retry scans 65,536 fixed ways.
		n, span, recall, mshrs int
	}{
		{96, 6, 1, 4000, 0, 20, 4}, {100, 50, 8, 4000, 0, 20, 4}, {3, 3, 16, 4000, 0, 20, 4}, {65, 65, 16, 4000, 0, 20, 4},
		{12, 15, 20, 4000, 0, 20, 4}, {80, 100, 20, 4000, 0, 20, 4}, {4096, 512, 2, 4000, 0, 20, 4},
		{1, 4096, config.MaxEntries, 7000, 512 << 10, 1000, 64},
	} {
		cfg := config.CacheConfig{Name: "c", SizeKB: tc.sizeKB, LineBytes: 64, Assoc: tc.assoc, LatencyCycles: 2, MSHRs: tc.mshrs, PortsPerCycle: 2, PrefetchDegree: 2}
		dram := config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 30, BandwidthGBs: 16, EpochCycles: 100}
		grown, full := NewCache(cfg, NewSimpleDRAM(dram, 2000, 64)), NewCache(cfg, NewSimpleDRAM(dram, 2000, 64))
		if got := int(grown.nsets); got != tc.nsets {
			t.Fatalf("geometry gives %d sets, want %d", got, tc.nsets)
		}
		fixedWays(full)
		for line := uint64(0); line < 3*uint64(tc.nsets); line += 7 {
			if grown.lookup(line) != nil || grown.Invalidate(line<<6, 64) {
				t.Fatalf("%d sets: untouched line %d is resident", tc.nsets, line)
			}
		}
		for p, pg := range grown.pages {
			if pg != nil {
				t.Fatalf("%d sets: probing allocated page %d", tc.nsets, p)
			}
		}

		// The same accesses and recalls against both: equal completion cycles,
		// recall outcomes and statistics. A recall names a line accessed
		// before, so most find a copy. The span covers half the sets of the
		// largest geometry, so half its pages stay nil.
		span := uint64(tc.span)
		if span == 0 {
			span = min(uint64(tc.sizeKB)*1024*4, 256<<10)
		}
		stream := recordedStream(int64(tc.nsets), tc.n, 1, span)
		drive := func(c *Cache) (completions, []bool) {
			done, recalls := make(completions, len(stream)), []bool(nil)
			rng := rand.New(rand.NewSource(1))
			i := 0
			for now := int64(0); i < len(stream) || c.Busy() || c.next.Busy(); now++ {
				for ; i < len(stream) && stream[i].at <= now; i++ {
					c.Access(&Request{Addr: stream[i].addr, Size: 8, Kind: stream[i].kind, Waiter: done, Tag: int64(i)}, now)
				}
				if now%int64(tc.recall) == 0 && i > 0 {
					recalls = append(recalls, c.Invalidate(stream[rng.Intn(i)].addr&^63, 64))
				}
				c.next.Tick(now)
				c.Tick(now)
			}
			return done, recalls
		}
		grownDone, grownRecalls := drive(grown)
		fullDone, fullRecalls := drive(full)
		if !reflect.DeepEqual(grownDone, fullDone) || !reflect.DeepEqual(grownRecalls, fullRecalls) {
			t.Errorf("%d sets: completions or recall outcomes differ between grown and full sets", tc.nsets)
		}
		if grown.Stats != full.Stats || grown.Stats.Evictions == 0 && span > uint64(tc.sizeKB)<<10 || grown.Stats.Hits == 0 {
			t.Errorf("%d sets: stats differ or the stream is too easy:\ngrown %+v\nfull  %+v", tc.nsets, grown.Stats, full.Stats)
		}
		checkBlocks(t, grown.arena, grown)
		allocated, widest, dirtyRecalls := 0, uint32(0), 0
		for _, pg := range grown.pages {
			if pg != nil {
				allocated++
				for _, r := range pg {
					widest = max(widest, r.n)
				}
			}
		}
		if want := min(len(grown.pages), int(span/64+pageSets-1)/pageSets+1); allocated == 0 || allocated > want {
			t.Errorf("%d sets: %d of %d pages allocated for a %d-byte span, want 1..%d", tc.nsets, allocated, len(grown.pages), span, want)
		}
		if tc.assoc > arenaLast && widest <= arenaLast {
			t.Errorf("%d ways: the widest set holds %d lines, never past a %d-line chunk", tc.assoc, widest, arenaLast)
		}
		for _, r := range grownRecalls {
			if r {
				dirtyRecalls++
			}
		}
		if dirtyRecalls == 0 {
			t.Errorf("%d sets: no recall dropped a dirty copy", tc.nsets)
		}
	}

	// Two cores over private L1s and L2s with the directory, one at a time:
	// core 1's sets, still growing after its 400 accesses, hold blocks core
	// 0's sets outgrew, and the run equals one on fixed ways, recalls
	// included.
	l2 := config.CacheConfig{Name: "L2", SizeKB: 64, LineBytes: 64, Assoc: 8, LatencyCycles: 4, MSHRs: 8, PortsPerCycle: 1}
	cfg := config.MemConfig{L1: config.CacheConfig{Name: "L1", SizeKB: 15, LineBytes: 64, Assoc: 20, LatencyCycles: 1, MSHRs: 4, PortsPerCycle: 2},
		L2: &l2, DRAM: config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 40, BandwidthGBs: 16, EpochCycles: 100}, Directory: true}
	stream := recordedStream(3, 8000, 1, 256<<10)
	drive := func(h *Hierarchy) (completions, map[uint32]bool) {
		done, outgrown := make(completions, len(stream)), map[uint32]bool(nil)
		i, now := 0, int64(0)
		for core, end := range []int{len(stream) - 400, len(stream)} {
			for ; i < end || h.Busy(); now++ {
				for ; i < end && stream[i].at <= now; i++ {
					h.AccessAt(core, stream[i].addr, 8, stream[i].kind, now, done, int64(i))
				}
				h.Tick(now)
			}
			if core == 0 {
				outgrown = checkBlocks(t, &h.lines, h.caches...)
			}
		}
		return done, outgrown
	}
	grown, full := NewHierarchy(cfg, 2, 2000), NewHierarchy(cfg, 2, 2000)
	for _, c := range full.caches {
		fixedWays(c)
	}
	grownDone, outgrown := drive(grown)
	fullDone, _ := drive(full)
	if !reflect.DeepEqual(grownDone, fullDone) || grown.Dir.Stats != full.Dir.Stats || grown.Dir.Stats.Invalidations == 0 {
		t.Errorf("hierarchy: completions or directory stats differ between grown and full sets, or nothing was recalled: %+v", grown.Dir.Stats)
	}
	for i, c := range grown.caches {
		if c.Stats != full.caches[i].Stats {
			t.Errorf("hierarchy: %s %d stats differ:\ngrown %+v\nfull  %+v", c.Name, i, c.Stats, full.caches[i].Stats)
		}
	}
	checkBlocks(t, &grown.lines, grown.caches...)
	reused := 0
	for _, c := range []*Cache{grown.L1s[1], grown.L2s[1]} {
		for _, pg := range c.pages {
			if pg == nil {
				continue
			}
			for _, r := range pg {
				if r.n > 0 && outgrown[r.block] {
					reused++
				}
			}
		}
	}
	if len(outgrown) == 0 || reused == 0 {
		t.Errorf("hierarchy: core 0's caches outgrew %d blocks and core 1's hold %d of them, want some of each", len(outgrown), reused)
	}
}

// TestCacheLineIs16Bytes pins a way's footprint: the tag and one word packing
// the last use with the valid, dirty and prefetched bits.
func TestCacheLineIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(cacheLine{}); size != 16 {
		t.Errorf("cacheLine is %d bytes, want 16", size)
	}
}

// TestTickSkipsOnlyIdleCaches: Hierarchy.Tick consults its due array and calls
// only the caches, the LLC included, and the SimpleDRAM whose queue head has
// matured. Driving the same recorded access stream through a hierarchy ticked
// that way and through one whose every level is called every cycle gives the
// same completion cycles and the same statistics at every level, DRAM
// throttling included.
func TestTickSkipsOnlyIdleCaches(t *testing.T) {
	for _, banked := range []bool{false, true} {
		cfg := config.TableIMem()
		cfg.L1.SizeKB, cfg.L2.SizeKB, cfg.LLC.SizeKB = 1, 4, 20
		cfg.Directory = true
		if banked {
			cfg.DRAM = config.BankedDRAMDefaults(cfg.DRAM.BandwidthGBs)
		} else {
			cfg.DRAM.BandwidthGBs = 12 // throttles: the epoch budget resets between skipped ticks
		}
		const cores = 6
		stream := recordedStream(7, 20000, cores, 48<<10)
		tickEvery := func(h *Hierarchy, now int64) {
			h.DRAM.Tick(now)
			h.LLC.Tick(now)
			for _, l2 := range h.L2s {
				l2.Tick(now)
			}
			for _, l1 := range h.L1s {
				l1.Tick(now)
			}
		}
		drive := func(tick func(*Hierarchy, int64)) (*Hierarchy, completions, int64) {
			h := NewHierarchy(cfg, cores, 2000)
			done := make(completions, len(stream))
			i, now := 0, int64(0)
			for ; i < len(stream) || h.Busy(); now++ {
				for ; i < len(stream) && stream[i].at <= now; i++ {
					h.AccessAt(stream[i].core, stream[i].addr, 8, stream[i].kind, now, done, int64(i))
				}
				tick(h, now)
			}
			return h, done, now
		}
		byDue, doneDue, endDue := drive((*Hierarchy).Tick)
		every, doneEvery, endEvery := drive(tickEvery)
		if endDue != endEvery || !reflect.DeepEqual(doneDue, doneEvery) {
			t.Errorf("banked=%v: completion cycles differ (drained at %d vs %d)", banked, endDue, endEvery)
		}
		for i := 0; i < cores; i++ {
			if byDue.L1s[i].Stats != every.L1s[i].Stats || byDue.L2s[i].Stats != every.L2s[i].Stats {
				t.Errorf("banked=%v: core %d private cache stats differ", banked, i)
			}
		}
		if byDue.LLC.Stats != every.LLC.Stats || DRAMStatsOf(byDue.DRAM) != DRAMStatsOf(every.DRAM) || byDue.Dir.Stats != every.Dir.Stats {
			t.Errorf("banked=%v: shared-level stats differ", banked)
		}
		if byDue.Progress() != every.Progress() {
			t.Errorf("banked=%v: event counts differ: %d vs %d", banked, byDue.Progress(), every.Progress())
		}
		l1 := TotalStats(byDue.L1s)
		if l1.Misses == 0 || l1.Hits == 0 || l1.MSHRStalls == 0 || byDue.Dir.Stats.Invalidations == 0 || !banked && DRAMStatsOf(byDue.DRAM).Throttled == 0 {
			t.Errorf("banked=%v: the stream is too easy: L1 %+v, directory %+v", banked, l1, byDue.Dir.Stats)
		}
		for i, d := range byDue.due {
			if d != HorizonNone {
				t.Errorf("banked=%v: drained cache %d still reports due %d", banked, i, d)
			}
		}
	}
}
