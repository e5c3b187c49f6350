package sim

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/workloads"
)

// spmvOnOneTile is a session of spmv at tiny scale on one Table II
// out-of-order tile: the memory-bound kernel of the benchmark's sparse_1t.
func spmvOnOneTile(t *testing.T, c *Cache) *Session {
	t.Helper()
	w, err := workloads.Resolve("spmv")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Options{Workload: w, Scale: workloads.Tiny, Cache: c, Config: &config.SystemConfig{
		Name: "spmv-1xooo", Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}}, Mem: config.TableIIMem(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunAllocatesPerLineNotPerMiss: a run allocates for the lines it touches,
// not for the misses it simulates. Every request, line fill and MSHR entry is
// recycled by its hierarchy, so a whole System.Run allocates fewer objects
// than a tenth of its L1 misses (a closure and a pooled request per miss made
// it about one each).
func TestRunAllocatesPerLineNotPerMiss(t *testing.T) {
	sys, err := spmvOnOneTile(t, NewCache()).BuildSystem(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sys.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs, misses := after.Mallocs-before.Mallocs, sys.Result().L1.Misses
	if misses < 1000 {
		t.Fatalf("%d L1 misses: the run is too small to tell", misses)
	}
	if allocs*10 >= uint64(misses) {
		t.Errorf("the run allocated %d objects for %d L1 misses, want fewer than %d", allocs, misses, misses/10)
	}
}

// sgemmSession is a session of sgemm at tiny scale on sc.
func sgemmSession(t *testing.T, sc *config.SystemConfig) *Session {
	t.Helper()
	w, err := workloads.Resolve("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Options{Workload: w, Scale: workloads.Tiny, Cache: NewCache(), Config: sc})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildAndRun traces s, then builds and runs its system and returns it with
// the bytes and objects BuildSystem and Run allocate.
func buildAndRun(t *testing.T, s *Session) (sys *soc.System, bytes, objects uint64) {
	t.Helper()
	ctx := context.Background()
	if _, err := s.Trace(ctx); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := s.BuildSystem(ctx)
	if err == nil {
		err = sys.Run(ctx, 0)
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return sys, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestRunBytesFollowLinesHeld pins what building and running sgemm at tiny
// scale on a 16-tile 4x4 mesh with the directory on allocates, 5 % above the
// counts it reads. A set holds the ways filled into it, carved from its
// hierarchy's line arena, and a ring slot holds no completion closure; when
// the first fill into a set took its page's 64 sets of every way, and each
// slot a closure, the same run allocated 843,720 bytes in 3,055 objects.
func TestRunBytesFollowLinesHeld(t *testing.T) {
	mem := config.TableIIMem()
	mem.Directory = true
	sys, bytes, objects := buildAndRun(t, sgemmSession(t, &config.SystemConfig{
		Name: "sgemm-16xooo", Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 16}}, Mem: mem,
		NoC: &config.NoCConfig{MeshWidth: 4, HopCycles: 4},
	}))
	if inv, misses := sys.Hier.Dir.Stats.Invalidations, sys.Result().L2.Misses; inv == 0 || misses < 100 {
		t.Fatalf("the run recalls %d lines and misses its L2s %d times: too small to tell", inv, misses)
	}
	const wantBytes, wantObjects = 551_976, 1_001
	if bytes > wantBytes*105/100 || objects > wantObjects*105/100 {
		t.Errorf("building and running allocated %d bytes in %d objects, want at most %d in %d (+5 %%)", bytes, objects, wantBytes, wantObjects)
	}
}

// TestMaxGeometryCacheCostsWhatItHolds: an L1 at the largest size and
// associativity Validate accepts, 256 sets of 65,536 ways, allocates for the
// lines sgemm fills into it (the first fill into a set once took 96 MB), and
// its run equals the one on an 8-way L1 of the same size, which never evicts
// either.
func TestMaxGeometryCacheCostsWhatItHolds(t *testing.T) {
	run := func(assoc int) (soc.Result, uint64) {
		mem := config.TableIIMem()
		mem.L1.SizeKB, mem.L1.Assoc = config.MaxCacheKB, assoc
		sc := &config.SystemConfig{Name: "sgemm-1xooo", Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}}, Mem: mem}
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		sys, bytes, _ := buildAndRun(t, sgemmSession(t, sc))
		return sys.Result(), bytes
	}
	widest, bytes := run(config.MaxEntries)
	eight, _ := run(8)
	if bytes > 1<<20 {
		t.Errorf("a run on a %d-way L1 allocated %d bytes, want at most 1 MiB", config.MaxEntries, bytes)
	}
	a, _ := json.Marshal(widest)
	b, _ := json.Marshal(eight)
	if string(a) != string(b) {
		t.Errorf("the %d-way L1's run differs from the 8-way one's:\n%s\n%s", config.MaxEntries, a, b)
	}
}

// TestConcurrentHierarchies: two sessions running on separate goroutines over
// one artifact cache share nothing mutable below it — each hierarchy recycles
// its own requests — so their results equal serial runs byte for byte. Under
// -race this is the check that no request crosses hierarchies.
func TestConcurrentHierarchies(t *testing.T) {
	c := NewCache()
	run := func() []byte {
		res, err := spmvOnOneTile(t, c).Run(context.Background())
		if err != nil {
			t.Error(err)
			return nil
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	serial := run()
	var concurrent [2][]byte
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run()
		}()
	}
	wg.Wait()
	for i, got := range concurrent {
		if string(got) != string(serial) {
			t.Errorf("concurrent run %d differs from the serial run:\n%s\n%s", i, got, serial)
		}
	}
}

// TestCoreAndDRAMKnobsAtTheirEdge: every core and DRAM size knob that
// config.Validate bounds, written out by hand so that drift in the bound is
// caught. At its maximum, sgemm at tiny scale on one tile runs every
// instruction in no more cycles than the default takes (each knob only
// widens a resource); one past it, the session is refused with a
// *config.SizeError that names the knob.
func TestCoreAndDRAMKnobsAtTheirEdge(t *testing.T) {
	system := func(set func(c *config.CoreConfig, d *config.DRAMConfig, v int), v int) *config.SystemConfig {
		core, mem := config.OutOfOrderCore(), config.TableIIMem()
		mem.DRAM = config.BankedDRAMDefaults(mem.DRAM.BandwidthGBs)
		if set != nil {
			set(&core, &mem.DRAM, v)
		}
		return &config.SystemConfig{Name: "sgemm-edge", Cores: []config.CoreSpec{{Core: core, Count: 1}}, Mem: mem}
	}
	base, _, _ := buildAndRun(t, sgemmSession(t, system(nil, 0)))
	want := base.Result()
	for _, row := range []struct {
		field string
		max   int
		set   func(c *config.CoreConfig, d *config.DRAMConfig, v int)
	}{
		{"issue_width", config.MaxEntries, func(c *config.CoreConfig, _ *config.DRAMConfig, v int) { c.IssueWidth = v }},
		{"window_size", config.MaxEntries, func(c *config.CoreConfig, _ *config.DRAMConfig, v int) { c.WindowSize = v }},
		{"lsq_size", config.MaxEntries, func(c *config.CoreConfig, _ *config.DRAMConfig, v int) { c.LSQSize = v }},
		{"max_messages", config.MaxEntries, func(c *config.CoreConfig, _ *config.DRAMConfig, v int) { c.MaxMessages = v }},
		{"channels", config.MaxDRAMBanks, func(_ *config.CoreConfig, d *config.DRAMConfig, v int) { d.Channels = v }},
		{"banks", config.MaxDRAMBanks, func(_ *config.CoreConfig, d *config.DRAMConfig, v int) { d.Banks = v }},
	} {
		t.Run(row.field, func(t *testing.T) {
			sys, _, _ := buildAndRun(t, sgemmSession(t, system(row.set, row.max)))
			if got := sys.Result(); got.Instrs != want.Instrs || got.Cycles <= 0 || got.Cycles > want.Cycles {
				t.Errorf("at %d: %d instructions in %d cycles; want %d in at most %d", row.max, got.Instrs, got.Cycles, want.Instrs, want.Cycles)
			}
			_, err := NewSession(Options{Workload: workloads.ByName("sgemm"), Scale: workloads.Tiny, Cache: NewCache(), Config: system(row.set, row.max+1)})
			var se *config.SizeError
			if !errors.As(err, &se) || se.Field != row.field {
				t.Errorf("at %d: NewSession = %v, want a *config.SizeError on %s", row.max+1, err, row.field)
			}
		})
	}
}
