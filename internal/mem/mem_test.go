package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mosaicsim/internal/config"
)

// doneFunc is a Waiter that ignores the tag.
type doneFunc func(at int64)

func (f doneFunc) MemDone(_, at int64) { f(at) }

func testCacheCfg(name string, sizeKB int, latency int64, prefetch int) config.CacheConfig {
	return config.CacheConfig{
		Name: name, SizeKB: sizeKB, LineBytes: 64, Assoc: 4,
		LatencyCycles: latency, MSHRs: 8, PortsPerCycle: 2, PrefetchDegree: prefetch,
	}
}

func simpleHier(prefetch int) *Hierarchy {
	cfg := config.MemConfig{
		L1: testCacheCfg("L1", 4, 1, prefetch),
		DRAM: config.DRAMConfig{
			Model: config.DRAMSimple, MinLatency: 100, BandwidthGBs: 16, EpochCycles: 100,
		},
	}
	return NewHierarchy(cfg, 1, 2000)
}

// run ticks the hierarchy until pred is true or the limit is hit, returning
// the cycle pred first held (or -1).
func run(h *Hierarchy, limit int64, pred func() bool) int64 {
	for now := int64(0); now < limit; now++ {
		h.Tick(now)
		if pred() {
			return now
		}
	}
	return -1
}

func TestColdMissThenHit(t *testing.T) {
	h := simpleHier(0)
	var missDone, hitDone int64 = -1, -1
	h.AccessAt(0, 0x10000, 8, Read, 0, doneFunc(func(now int64) { missDone = now }), 0)
	end := run(h, 10000, func() bool { return missDone >= 0 })
	if end < 0 {
		t.Fatal("miss never completed")
	}
	if missDone < 100 {
		t.Errorf("cold miss completed at %d, must include DRAM latency (>=100)", missDone)
	}
	start := missDone + 1
	h.AccessAt(0, 0x10008, 8, Read, start, doneFunc(func(now int64) { hitDone = now }), 0)
	for now := start; now < start+100; now++ {
		h.Tick(now)
	}
	if hitDone < 0 {
		t.Fatal("hit never completed")
	}
	if lat := hitDone - start; lat > 5 {
		t.Errorf("hit latency = %d, want ~1", lat)
	}
	s := h.L1s[0].Stats
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats: hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
}

func TestMSHRCoalescing(t *testing.T) {
	h := simpleHier(0)
	doneCount := 0
	for i := 0; i < 4; i++ {
		h.AccessAt(0, 0x20000+uint64(i*8), 8, Read, 0, doneFunc(func(now int64) { doneCount++ }), 0)
	}
	if end := run(h, 10000, func() bool { return doneCount == 4 }); end < 0 {
		t.Fatal("requests never completed")
	}
	s := h.L1s[0].Stats
	if s.Coalesced != 3 {
		t.Errorf("coalesced = %d, want 3 (same line)", s.Coalesced)
	}
	dram := DRAMStatsOf(h.DRAM)
	if dram.Reads != 1 {
		t.Errorf("DRAM reads = %d, want 1 (one line fill)", dram.Reads)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := simpleHier(0)
	// 4KB cache, 64B lines, 4-way: 16 sets. Write 3 passes of the same set
	// to force dirty evictions: lines mapping to set 0 are 16 lines apart.
	done := 0
	total := 0
	setStride := uint64(16 * 64)
	for i := 0; i < 8; i++ {
		h.AccessAt(0, 0x40000+uint64(i)*setStride, 8, Write, int64(i), doneFunc(func(now int64) { done++ }), 0)
		total++
	}
	if end := run(h, 100000, func() bool { return done == total && !h.Busy() }); end < 0 {
		t.Fatal("writes never completed")
	}
	s := h.L1s[0].Stats
	if s.Evictions < 4 {
		t.Errorf("evictions = %d, want >=4", s.Evictions)
	}
	if s.Writebacks < 4 {
		t.Errorf("writebacks = %d, want >=4 (all lines dirty)", s.Writebacks)
	}
	dram := DRAMStatsOf(h.DRAM)
	if dram.Writebacks < 4 {
		t.Errorf("DRAM writebacks = %d, want >=4", dram.Writebacks)
	}
}

func TestAtomicDirtiesLine(t *testing.T) {
	h := simpleHier(0)
	done := 0
	setStride := uint64(16 * 64)
	for i := 0; i < 5; i++ {
		h.AccessAt(0, 0x40000+uint64(i)*setStride, 8, Atomic, int64(i), doneFunc(func(now int64) { done++ }), 0)
	}
	if end := run(h, 100000, func() bool { return done == 5 && !h.Busy() }); end < 0 {
		t.Fatal("atomics never completed")
	}
	if h.L1s[0].Stats.Writebacks < 1 {
		t.Error("atomic-dirtied victim line was not written back")
	}
}

func TestPrefetcherDetectsStream(t *testing.T) {
	withPf := simpleHier(4)
	noPf := simpleHier(0)
	measure := func(h *Hierarchy) (int64, CacheStats) {
		var totalLat int64
		now := int64(0)
		for i := 0; i < 64; i++ {
			done := int64(-1)
			issue := now
			h.AccessAt(0, 0x80000+uint64(i*64), 8, Read, issue, doneFunc(func(t int64) { done = t }), 0)
			for done < 0 {
				h.Tick(now)
				now++
			}
			totalLat += done - issue
			now++
		}
		return totalLat, h.L1s[0].Stats
	}
	latPf, statsPf := measure(withPf)
	latNo, _ := measure(noPf)
	if statsPf.PrefetchIssued == 0 {
		t.Fatal("stream prefetcher never fired on a sequential scan")
	}
	if statsPf.PrefetchUseful == 0 {
		t.Error("no demand hits on prefetched lines")
	}
	if latPf >= latNo {
		t.Errorf("prefetching did not help: %d cycles vs %d without", latPf, latNo)
	}
}

func TestSimpleDRAMMinLatency(t *testing.T) {
	d := NewSimpleDRAM(config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 150, BandwidthGBs: 100, EpochCycles: 100}, 2000, 64)
	var done int64 = -1
	d.Access(&Request{Addr: 64, Size: 64, Kind: Read, Waiter: doneFunc(func(now int64) { done = now })}, 10)
	for now := int64(0); now < 1000 && done < 0; now++ {
		d.Tick(now)
	}
	if done < 160 {
		t.Errorf("completed at %d, want >= issue(10) + 150", done)
	}
}

func TestSimpleDRAMBandwidthThrottling(t *testing.T) {
	run := func(bwGBs float64) int64 {
		d := NewSimpleDRAM(config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 10, BandwidthGBs: bwGBs, EpochCycles: 100}, 2000, 64)
		remaining := 200
		for i := 0; i < 200; i++ {
			d.Access(&Request{Addr: uint64(i * 64), Size: 64, Kind: Read, Waiter: doneFunc(func(now int64) { remaining-- })}, 0)
		}
		for now := int64(0); now < 1_000_000; now++ {
			d.Tick(now)
			if remaining == 0 {
				return now
			}
		}
		return -1
	}
	slow := run(1)
	fast := run(64)
	if slow < 0 || fast < 0 {
		t.Fatal("requests never drained")
	}
	if slow <= fast*4 {
		t.Errorf("bandwidth throttling ineffective: 1GB/s drained in %d, 64GB/s in %d", slow, fast)
	}
}

func TestSimpleDRAMBudgetComputation(t *testing.T) {
	// 16 GB/s at 2 GHz = 8 B/cycle = 800 B per 100-cycle epoch = 12 lines.
	d := NewSimpleDRAM(config.DRAMConfig{MinLatency: 10, BandwidthGBs: 16, EpochCycles: 100}, 2000, 64)
	if got := d.MaxLinesPerEpoch(); got != 12 {
		t.Errorf("MaxLinesPerEpoch = %d, want 12", got)
	}
}

func TestBankedDRAMRowLocality(t *testing.T) {
	cfg := config.BankedDRAMDefaults(24)
	drain := func(addrs []uint64) (int64, DRAMStats) {
		d := NewBankedDRAM(cfg)
		remaining := len(addrs)
		for _, a := range addrs {
			d.Access(&Request{Addr: a, Size: 64, Kind: Read, Waiter: doneFunc(func(now int64) { remaining-- })}, 0)
		}
		for now := int64(0); now < 1_000_000; now++ {
			d.Tick(now)
			if remaining == 0 {
				return now, d.Stats
			}
		}
		return -1, d.Stats
	}
	// Sequential within rows: mostly row hits.
	var seq []uint64
	for i := 0; i < 64; i++ {
		seq = append(seq, uint64(i*64))
	}
	seqEnd, seqStats := drain(seq)
	if seqStats.RowHits == 0 {
		t.Error("sequential stream produced no row hits")
	}
	// Same bank, alternating rows: all conflicts.
	rowBytes := uint64(cfg.RowBytes)
	banks := uint64(cfg.Channels * cfg.Banks)
	var conf []uint64
	for i := 0; i < 64; i++ {
		row := uint64(i%2) * banks // rows that map to bank 0
		conf = append(conf, (row*rowBytes)+(uint64(i/2)%4)*64)
	}
	confEnd, confStats := drain(conf)
	if confStats.Conflicts == 0 {
		t.Error("alternating-row stream produced no bank conflicts")
	}
	if seqEnd <= 0 || confEnd <= 0 {
		t.Fatal("streams never drained")
	}
	if confEnd <= seqEnd {
		t.Errorf("bank conflicts should be slower: conflict=%d vs sequential=%d", confEnd, seqEnd)
	}
}

func TestMSHRStallRetries(t *testing.T) {
	cfg := config.MemConfig{
		L1:   config.CacheConfig{Name: "L1", SizeKB: 4, LineBytes: 64, Assoc: 4, LatencyCycles: 1, MSHRs: 2, PortsPerCycle: 4},
		DRAM: config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 200, BandwidthGBs: 64, EpochCycles: 100},
	}
	h := NewHierarchy(cfg, 1, 2000)
	done := 0
	for i := 0; i < 8; i++ {
		h.AccessAt(0, uint64(0x10000+i*4096), 8, Read, 0, doneFunc(func(now int64) { done++ }), 0)
	}
	if end := run(h, 100000, func() bool { return done == 8 }); end < 0 {
		t.Fatal("requests starved behind full MSHRs")
	}
	if h.L1s[0].Stats.MSHRStalls == 0 {
		t.Error("expected MSHR stalls with 8 distinct misses and 2 MSHRs")
	}
}

// holdLevel is a next level that parks every fill until released, so tests
// control exactly when an MSHR frees.
type holdLevel struct {
	pending []*Request
}

func (h *holdLevel) Access(r *Request, now int64) { h.pending = append(h.pending, r) }
func (h *holdLevel) Tick(int64)                   {}
func (h *holdLevel) Busy() bool                   { return len(h.pending) > 0 }
func (h *holdLevel) NextEvent(int64) int64        { return HorizonNone }
func (h *holdLevel) release(now int64) {
	for _, r := range h.pending {
		r.Finish(now)
	}
	h.pending = nil
}

// TestMSHRRetryNotBlockedByLaterEntries: an MSHR-stall retry (ready = now+1)
// must be processed as soon as the MSHR frees, not wait behind a later entry
// with a larger ready time. The FIFO inq head-of-line blocked exactly this.
func TestMSHRRetryNotBlockedByLaterEntries(t *testing.T) {
	next := &holdLevel{}
	cfg := config.CacheConfig{Name: "L1", SizeKB: 4, LineBytes: 64, Assoc: 4,
		LatencyCycles: 20, MSHRs: 1, PortsPerCycle: 4}
	c := NewCache(cfg, next)
	// A (due t=20) takes the only MSHR; its fill is held until t=45.
	// B (due t=40) stalls on the full MSHR and retries from t=41.
	// C (due t=60) is a later long-latency entry queued behind B's retries.
	var doneB int64 = -1
	c.Access(&Request{Addr: 0x00000, Size: 8, Kind: Read, Waiter: doneFunc(func(int64) {})}, 0)
	c.Access(&Request{Addr: 0x10000, Size: 8, Kind: Read, Waiter: doneFunc(func(at int64) { doneB = at })}, 20)
	c.Access(&Request{Addr: 0x20000, Size: 8, Kind: Read, Waiter: doneFunc(func(int64) {})}, 40)
	for now := int64(0); now <= 100; now++ {
		c.Tick(now)
		if now >= 45 {
			next.release(now)
		}
	}
	if c.Stats.MSHRStalls == 0 {
		t.Fatal("scenario did not exercise MSHR stalls")
	}
	if doneB < 0 {
		t.Fatal("stalled request never completed")
	}
	if doneB >= 60 {
		t.Errorf("retry completed at %d: head-of-line blocked behind the ready=60 entry", doneB)
	}
}

func TestThreeLevelHierarchy(t *testing.T) {
	l2 := testCacheCfg("L2", 64, 6, 0)
	llc := testCacheCfg("LLC", 256, 18, 0)
	cfg := config.MemConfig{
		L1: testCacheCfg("L1", 4, 1, 0), L2: &l2, LLC: &llc,
		DRAM: config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 200, BandwidthGBs: 64, EpochCycles: 100},
	}
	h := NewHierarchy(cfg, 2, 2000)
	if len(h.L1s) != 2 || len(h.L2s) != 2 || h.LLC == nil {
		t.Fatal("hierarchy shape wrong")
	}
	// Core 0 warms a line; its hit path stays private. Core 1 misses L1/L2
	// but hits the shared LLC.
	var d0, d1 int64 = -1, -1
	h.AccessAt(0, 0x50000, 8, Read, 0, doneFunc(func(now int64) { d0 = now }), 0)
	if run(h, 10000, func() bool { return d0 >= 0 }) < 0 {
		t.Fatal("core 0 access never completed")
	}
	start := d0 + 1
	h.AccessAt(1, 0x50000, 8, Read, start, doneFunc(func(now int64) { d1 = now }), 0)
	for now := start; now < start+1000 && d1 < 0; now++ {
		h.Tick(now)
	}
	if d1 < 0 {
		t.Fatal("core 1 access never completed")
	}
	lat0 := d0 - 0
	lat1 := d1 - start
	if lat1 >= lat0 {
		t.Errorf("LLC hit (%d cycles) should beat DRAM (%d cycles)", lat1, lat0)
	}
	if h.LLC.Stats.Hits == 0 {
		t.Error("shared LLC recorded no hit for core 1")
	}
}

// TestEveryRequestCompletesOnce is a property test: random mixes of reads,
// writes, and atomics over random addresses complete exactly once each.
func TestEveryRequestCompletesOnce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := simpleHier(2)
		n := 50 + rng.Intn(200)
		completions := make([]int, n)
		issued := 0
		now := int64(0)
		for issued < n || h.Busy() {
			if issued < n && rng.Intn(3) > 0 {
				i := issued
				kind := []Kind{Read, Write, Atomic}[rng.Intn(3)]
				addr := uint64(rng.Intn(1 << 18))
				h.AccessAt(0, addr, 8, kind, now, doneFunc(func(int64) { completions[i]++ }), 0)
				issued++
			}
			h.Tick(now)
			now++
			if now > 5_000_000 {
				return false
			}
		}
		for extra := int64(0); extra < 10; extra++ {
			h.Tick(now + extra)
		}
		for _, c := range completions {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid geometry must panic")
		}
	}()
	NewCache(config.CacheConfig{Name: "bad", SizeKB: 1, LineBytes: 64, Assoc: 7}, nil)
}

func TestHitRate(t *testing.T) {
	s := CacheStats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %g", s.HitRate())
	}
	var empty CacheStats
	if empty.HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

func coherentHier(directory bool) *Hierarchy {
	cfg := config.MemConfig{
		L1:        testCacheCfg("L1", 4, 1, 0),
		DRAM:      config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 100, BandwidthGBs: 16, EpochCycles: 100},
		Directory: directory,
	}
	return NewHierarchy(cfg, 2, 2000)
}

// drive runs alternating writes from two cores to the same line and returns
// total completion time.
func pingPong(h *Hierarchy, rounds int) int64 {
	now := int64(0)
	for r := 0; r < rounds; r++ {
		core := r % 2
		done := int64(-1)
		h.AccessAt(core, 0x30000, 8, Write, now, doneFunc(func(t int64) { done = t }), 0)
		for done < 0 {
			h.Tick(now)
			now++
		}
		now++
	}
	return now
}

func TestDirectoryInvalidatesWriteSharing(t *testing.T) {
	coherent := coherentHier(true)
	incoherent := coherentHier(false)
	tc := pingPong(coherent, 20)
	ti := pingPong(incoherent, 20)
	if tc <= ti {
		t.Errorf("coherent ping-pong (%d cycles) should be slower than incoherent (%d)", tc, ti)
	}
	d := coherent.Dir.Stats
	if d.Invalidations < 18 {
		t.Errorf("invalidations = %d, want ~19 (one per ownership transfer)", d.Invalidations)
	}
	if d.Upgrades == 0 {
		t.Error("no upgrade events recorded")
	}
	// The incoherent hierarchy never misses after the two warm-ups; the
	// coherent one misses on every transfer because the copy was recalled.
	ch := coherent.L1s[0].Stats.Misses + coherent.L1s[1].Stats.Misses
	ih := incoherent.L1s[0].Stats.Misses + incoherent.L1s[1].Stats.Misses
	if ch <= ih {
		t.Errorf("coherent misses (%d) should exceed incoherent (%d)", ch, ih)
	}
}

func TestDirectoryReadSharingIsCheap(t *testing.T) {
	h := coherentHier(true)
	now := int64(0)
	// Both cores read the same line repeatedly: after warm-up, all hits.
	for r := 0; r < 20; r++ {
		done := int64(-1)
		h.AccessAt(r%2, 0x40000, 8, Read, now, doneFunc(func(t int64) { done = t }), 0)
		for done < 0 {
			h.Tick(now)
			now++
		}
		now++
	}
	if h.Dir.Stats.Invalidations != 0 {
		t.Errorf("read sharing caused %d invalidations", h.Dir.Stats.Invalidations)
	}
}

func TestDirectoryDirtyFetch(t *testing.T) {
	h := coherentHier(true)
	now := int64(0)
	run := func(core int, kind Kind) {
		done := int64(-1)
		h.AccessAt(core, 0x50000, 8, kind, now, doneFunc(func(t int64) { done = t }), 0)
		for done < 0 {
			h.Tick(now)
			now++
		}
		now++
	}
	run(0, Write) // core 0 dirties the line
	run(1, Read)  // core 1 reads it: dirty fetch + flush
	if h.Dir.Stats.DirtyFetches != 1 {
		t.Errorf("DirtyFetches = %d, want 1", h.Dir.Stats.DirtyFetches)
	}
	ds := DRAMStatsOf(h.DRAM)
	if ds.Writebacks == 0 {
		t.Error("recalled dirty line was not flushed to the shared level")
	}
}

// TestDirectoryRecallsEveryPrivateLineSize: a recall drops the victim's copy
// at every private level, whatever that level's line size. Core 0 reads a
// line, core 1 writes it, and core 0's next read misses its L2 as well as its
// L1 (an L2 of 128-byte lines once kept the copy: the recall named an L1 line
// index, which the L2 read in its own units).
func TestDirectoryRecallsEveryPrivateLineSize(t *testing.T) {
	for _, l2Line := range []int{32, 64, 128} {
		cfg := config.TableIIMem()
		cfg.Directory = true
		cfg.L2.LineBytes = l2Line
		h := NewHierarchy(cfg, 2, 2000)
		now := int64(0)
		access := func(core int, kind Kind) {
			done := int64(-1)
			h.AccessAt(core, 0x40000, 8, kind, now, doneFunc(func(at int64) { done = at }), 0)
			for ; done < 0; now++ {
				h.Tick(now)
			}
		}
		access(0, Read)
		access(1, Write)
		before := h.L2s[0].Stats
		access(0, Read)
		if s := h.L2s[0].Stats; s.Hits != before.Hits || s.Misses != before.Misses+1 {
			t.Errorf("%d-byte L2 lines: core 0's read after the recall made %d L2 hits and %d misses, want 0 and 1",
				l2Line, s.Hits-before.Hits, s.Misses-before.Misses)
		}
	}
}

func TestDirectoryDisjointLinesUnaffected(t *testing.T) {
	coherent := coherentHier(true)
	now := int64(0)
	for r := 0; r < 20; r++ {
		core := r % 2
		done := int64(-1)
		addr := uint64(0x60000 + core*4096)
		coherent.AccessAt(core, addr, 8, Write, now, doneFunc(func(t int64) { done = t }), 0)
		for done < 0 {
			coherent.Tick(now)
			now++
		}
		now++
	}
	if coherent.Dir.Stats.Invalidations != 0 {
		t.Errorf("disjoint working sets caused %d invalidations", coherent.Dir.Stats.Invalidations)
	}
}

// TestLRUWithinAssociativity: accessing up to `assoc` distinct lines of one
// set never evicts any of them (property over random orders).
func TestLRUWithinAssociativity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := simpleHier(0)
		// 4KB/64B/4-way: 16 sets; lines of set 0 are 1KB apart.
		const assoc = 4
		var lines []uint64
		for i := 0; i < assoc; i++ {
			lines = append(lines, uint64(0x100000+i*16*64))
		}
		now := int64(0)
		touch := func(addr uint64) {
			done := int64(-1)
			h.AccessAt(0, addr, 8, Read, now, doneFunc(func(t int64) { done = t }), 0)
			for done < 0 {
				h.Tick(now)
				now++
			}
			now++
		}
		// Warm all ways, then 50 random re-touches.
		for _, l := range lines {
			touch(l)
		}
		for i := 0; i < 50; i++ {
			touch(lines[rng.Intn(assoc)])
		}
		return h.L1s[0].Stats.Evictions == 0 && h.L1s[0].Stats.Misses == assoc
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCacheHitSteadyStateAllocs pins the zero-alloc contract of the cache hit
// path: with the request pool and pending-heap capacity warm, a demand hit
// (Access through the hierarchy, then the ticks that retire it) must not
// allocate.
func TestCacheHitSteadyStateAllocs(t *testing.T) {
	h := NewHierarchy(config.TableIIMem(), 1, 2000)
	now := int64(0)
	step := func() {
		h.AccessAt(0, 1<<16, 8, Read, now, nil, 0)
		for i := 0; i < 4; i++ {
			h.Tick(now)
			now++
		}
	}
	// Warm up: the first access misses to DRAM, fills the line, and seeds the
	// request pool; keep going until the hierarchy fully drains.
	for i := 0; i < 500; i++ {
		step()
	}
	for h.Busy() {
		h.Tick(now)
		now++
	}
	avg := testing.AllocsPerRun(200, step)
	if avg != 0 {
		t.Errorf("cache hit path allocates %.2f objects/access in steady state, want 0", avg)
	}
}

// TestCacheMissSteadyStateAllocs pins the zero-alloc contract of the miss
// path: once the pages, the queues and the hierarchy's request list are warm,
// a streaming write that misses both levels, fills, evicts a dirty line and
// writes it back to DRAM allocates nothing — no request, no fill callback, no
// MSHR entry.
func TestCacheMissSteadyStateAllocs(t *testing.T) {
	l2 := testCacheCfg("L2", 16, 6, 0)
	h := NewHierarchy(config.MemConfig{L1: testCacheCfg("L1", 4, 1, 2), L2: &l2,
		DRAM: config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 100, BandwidthGBs: 16, EpochCycles: 100}}, 1, 2000)
	now, addr, finished := int64(0), uint64(0), false
	done := func(int64) { finished = true }
	step := func() {
		finished = false
		h.AccessAt(0, addr, 8, Write, now, doneFunc(done), 0)
		for !finished {
			h.Tick(now)
			now++
		}
		addr = (addr + 64) % (64 << 10) // four times the L2
	}
	for i := 0; i < 3*1024; i++ {
		step()
	}
	before := DRAMStatsOf(h.DRAM)
	avg := testing.AllocsPerRun(500, step)
	if avg != 0 {
		t.Errorf("cache miss path allocates %.2f objects/access in steady state, want 0", avg)
	}
	after, s := DRAMStatsOf(h.DRAM), TotalStats(h.L2s)
	if after.Reads-before.Reads < 400 || after.Writebacks-before.Writebacks < 400 || s.Writebacks == 0 {
		t.Errorf("measured window made %d DRAM reads and %d writebacks; every access must miss to DRAM and evict a dirty line",
			after.Reads-before.Reads, after.Writebacks-before.Writebacks)
	}
}

// TestDirectoryMaskBound: the sharer mask names every core up to
// config.MaxDirectoryTiles, and a hierarchy past it is refused rather than
// built with tiles the directory cannot see (tile 64 once kept a stale copy:
// 1 << 64 is 0).
func TestDirectoryMaskBound(t *testing.T) {
	for _, sharer := range []int{1, 62, config.MaxDirectoryTiles - 1} {
		d := NewDirectory(0)
		d.Access(sharer, 7, Read)
		if _, inv := d.Access(0, 7, Write); len(inv) != 1 || inv[0] != sharer {
			t.Errorf("tile 0 writing a line tile %d reads invalidates %v, want [%d]", sharer, inv, sharer)
		}
	}
	cfg := config.MemConfig{L1: testCacheCfg("L1", 4, 1, 0), DRAM: config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 100, BandwidthGBs: 16}, Directory: true}
	NewHierarchy(cfg, config.MaxDirectoryTiles, 2000)
	defer func() {
		if recover() == nil {
			t.Errorf("a directory over %d cores was built", config.MaxDirectoryTiles+1)
		}
	}()
	NewHierarchy(cfg, config.MaxDirectoryTiles+1, 2000)
}
