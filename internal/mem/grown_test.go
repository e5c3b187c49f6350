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

// TestGrownCacheSets: a set holds only the ways filled into it, grown 1, 4,
// 16, ... up to Assoc from its hierarchy's line arena, and a page of sets is
// allocated on the first fill into it. An untouched set reads as all invalid
// — lookups miss, Invalidate finds nothing, neither allocates — and a cache
// whose every set is pre-grown to Assoc invalid ways (the fixed-way layout)
// behaves identically under the same accesses and directory recalls, the
// recalls landing on sets mid-growth.
func TestGrownCacheSets(t *testing.T) {
	for _, tc := range []struct{ nsets, sizeKB, assoc int }{
		{96, 6, 1}, {100, 50, 8}, {3, 3, 16}, {65, 65, 16}, {12, 15, 20}, {80, 100, 20}, {4096, 512, 2},
	} {
		cfg := config.CacheConfig{Name: "c", SizeKB: tc.sizeKB, LineBytes: 64, Assoc: tc.assoc, LatencyCycles: 2, MSHRs: 4, PortsPerCycle: 2, PrefetchDegree: 2}
		dram := config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 30, BandwidthGBs: 16, EpochCycles: 100}
		grown, full := NewCache(cfg, NewSimpleDRAM(dram, 2000, 64)), NewCache(cfg, NewSimpleDRAM(dram, 2000, 64))
		if got := int(grown.nsets); got != tc.nsets {
			t.Fatalf("geometry gives %d sets, want %d", got, tc.nsets)
		}
		for p := range full.pages {
			full.pages[p] = make([][]cacheLine, min(pageSets, tc.nsets-p*pageSets))
			for s := range full.pages[p] {
				full.pages[p][s] = make([]cacheLine, tc.assoc)
			}
		}
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
		span := min(uint64(tc.sizeKB)*1024*4, 256<<10)
		stream := recordedStream(int64(tc.nsets), 4000, 1, span)
		drive := func(c *Cache) (completions, []bool) {
			done, recalls := make(completions, len(stream)), []bool(nil)
			rng := rand.New(rand.NewSource(1))
			i := 0
			for now := int64(0); i < len(stream) || c.Busy() || c.next.Busy(); now++ {
				for ; i < len(stream) && stream[i].at <= now; i++ {
					c.Access(&Request{Addr: stream[i].addr, Size: 8, Kind: stream[i].kind, Waiter: done, Tag: int64(i)}, now)
				}
				if now%20 == 0 && i > 0 {
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
		if grown.Stats != full.Stats || grown.Stats.Evictions == 0 && tc.nsets < 4096 || grown.Stats.Hits == 0 {
			t.Errorf("%d sets: stats differ or the stream is too easy:\ngrown %+v\nfull  %+v", tc.nsets, grown.Stats, full.Stats)
		}
		allocated, dirtyRecalls := 0, 0
		for _, pg := range grown.pages {
			if pg != nil {
				allocated++
			}
			for _, set := range pg {
				if len(set) > tc.assoc || cap(set) > tc.assoc || cap(set) >= 4*len(set) && cap(set) > 1 {
					t.Errorf("%d sets: a set holds %d lines in %d ways, want at most %d and under 4 ways a line", tc.nsets, len(set), cap(set), tc.assoc)
				}
			}
		}
		if want := min(len(grown.pages), int(span/64+pageSets-1)/pageSets+1); allocated == 0 || allocated > want {
			t.Errorf("%d sets: %d of %d pages allocated for a %d-byte span, want 1..%d", tc.nsets, allocated, len(grown.pages), span, want)
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
