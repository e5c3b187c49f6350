package mem

import (
	"math/rand"
	"reflect"
	"testing"

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

// TestPagedCacheLines: a cache allocates its lines a page of 64 sets at a
// time, on the first fill into the page. An untouched page reads as all
// invalid — lookups miss, Invalidate finds nothing, neither allocates — and a
// cache whose pages all exist from the start behaves identically.
func TestPagedCacheLines(t *testing.T) {
	for _, tc := range []struct{ nsets, sizeKB, assoc int }{
		{1, 1, 16}, {8, 1, 2}, {64, 8, 2}, {96, 12, 2}, {4096, 512, 2},
	} {
		cfg := config.CacheConfig{Name: "c", SizeKB: tc.sizeKB, LineBytes: 64, Assoc: tc.assoc, LatencyCycles: 2, MSHRs: 4, PortsPerCycle: 2, PrefetchDegree: 2}
		dram := config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 30, BandwidthGBs: 16, EpochCycles: 100}
		lazy, eager := NewCache(cfg, NewSimpleDRAM(dram, 2000, 64)), NewCache(cfg, NewSimpleDRAM(dram, 2000, 64))
		if got := int(lazy.nsets); got != tc.nsets {
			t.Fatalf("geometry gives %d sets, want %d", got, tc.nsets)
		}
		for p := range eager.pages {
			eager.pages[p] = make([]cacheLine, min(pageSets, tc.nsets-p*pageSets)*tc.assoc)
		}
		for line := uint64(0); line < 3*uint64(tc.nsets); line += 7 {
			if lazy.lookup(line) != nil || lazy.Invalidate(line) {
				t.Fatalf("%d sets: untouched line %d is resident", tc.nsets, line)
			}
		}
		for p, pg := range lazy.pages {
			if pg != nil {
				t.Fatalf("%d sets: probing allocated page %d", tc.nsets, p)
			}
		}

		// The same accesses and directory recalls against both: equal
		// completion cycles, recall outcomes and statistics. The span covers
		// a fraction of the sets of the largest geometry, so pages stay nil.
		span := min(uint64(tc.sizeKB)*1024*4, 64<<10)
		stream := recordedStream(int64(tc.nsets), 4000, 1, span)
		drive := func(c *Cache) (done []int64, recalls []bool) {
			done = make([]int64, len(stream))
			rng := rand.New(rand.NewSource(1))
			i := 0
			for now := int64(0); i < len(stream) || c.Busy() || c.next.Busy(); now++ {
				for ; i < len(stream) && stream[i].at <= now; i++ {
					slot := &done[i]
					c.Access(&Request{Addr: stream[i].addr, Size: 8, Kind: stream[i].kind, Done: func(at int64) { *slot = at }}, now)
				}
				if now%5 == 0 {
					recalls = append(recalls, c.Invalidate(uint64(rng.Int63n(int64(span)))>>6))
				}
				c.next.Tick(now)
				c.Tick(now)
			}
			return done, recalls
		}
		lazyDone, lazyRecalls := drive(lazy)
		eagerDone, eagerRecalls := drive(eager)
		if !reflect.DeepEqual(lazyDone, eagerDone) || !reflect.DeepEqual(lazyRecalls, eagerRecalls) {
			t.Errorf("%d sets: completions or recall outcomes differ between lazily and eagerly paged caches", tc.nsets)
		}
		if lazy.Stats != eager.Stats || lazy.Stats.Evictions == 0 && tc.nsets < 4096 || lazy.Stats.Hits == 0 {
			t.Errorf("%d sets: stats differ or the stream is too easy:\nlazy  %+v\neager %+v", tc.nsets, lazy.Stats, eager.Stats)
		}
		allocated := 0
		for _, pg := range lazy.pages {
			if pg != nil {
				allocated++
			}
		}
		if want := min(len(lazy.pages), int(span/64+pageSets-1)/pageSets+1); allocated == 0 || allocated > want {
			t.Errorf("%d sets: %d of %d pages allocated for a %d-byte span, want 1..%d", tc.nsets, allocated, len(lazy.pages), span, want)
		}
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
		drive := func(tick func(*Hierarchy, int64)) (*Hierarchy, []int64, int64) {
			h := NewHierarchy(cfg, cores, 2000)
			done := make([]int64, len(stream))
			i, now := 0, int64(0)
			for ; i < len(stream) || h.Busy(); now++ {
				for ; i < len(stream) && stream[i].at <= now; i++ {
					slot := &done[i]
					h.AccessAt(stream[i].core, stream[i].addr, 8, stream[i].kind, now, func(at int64) { *slot = at })
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
