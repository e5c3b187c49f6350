package workloads

import (
	"context"
	"runtime"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/core"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/soc"
)

// TestAllWorkloadsCompile ensures every kernel source compiles to verified IR.
func TestAllWorkloadsCompile(t *testing.T) {
	for _, w := range All() {
		if _, err := w.Kernel(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// TestAllWorkloadsExecuteAndVerify runs every workload functionally at Tiny
// scale on 1 and 4 tiles; each workload's Check validates results against a
// Go reference implementation.
func TestAllWorkloadsExecuteAndVerify(t *testing.T) {
	for _, w := range All() {
		for _, tiles := range []int{1, 4} {
			g, tr, err := w.Trace(tiles, Tiny)
			if err != nil {
				t.Errorf("%s tiles=%d: %v", w.Name, tiles, err)
				continue
			}
			if len(tr.Tiles) != tiles {
				t.Errorf("%s: trace has %d tiles, want %d", w.Name, len(tr.Tiles), tiles)
			}
			if tr.TotalDynInstrs() == 0 {
				t.Errorf("%s: empty trace", w.Name)
			}
			if g.Stats().Nodes == 0 {
				t.Errorf("%s: empty DDG", w.Name)
			}
		}
	}
}

// TestHistoSmallChecksAcrossTileCounts is the regression test for histo's
// result check: the kernel's saturation test races across tiles by
// construction, and at small scale the race shows on 2 and 8 tiles
// (hist[110] = 256). The check must accept that bounded overshoot.
func TestHistoSmallChecksAcrossTileCounts(t *testing.T) {
	for _, tiles := range []int{1, 2, 4, 8} {
		if _, _, err := HISTO().Trace(tiles, Small); err != nil {
			t.Errorf("tiles=%d: %v", tiles, err)
		}
	}
}

// TestWorkloadsSimulate smoke-tests the full timing pipeline for every
// workload at Tiny scale.
func TestWorkloadsSimulate(t *testing.T) {
	accels := DefaultAccelModels(2000)
	for _, w := range All() {
		g, tr, err := w.Trace(1, Tiny)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sys, err := soc.NewSPMD(&config.SystemConfig{
			Name:  w.Name,
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}},
			Mem:   config.TableIIMem(),
		}, g, tr, accels)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := sys.Run(context.Background(), 2_000_000_000); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r := sys.Result()
		if r.Cycles <= 0 || r.Instrs != tr.TotalDynInstrs() {
			t.Errorf("%s: cycles=%d instrs=%d (trace %d)", w.Name, r.Cycles, r.Instrs, tr.TotalDynInstrs())
		}
		// Core energy is the per-class table summed over the trace: every
		// entry is a small integer, so the float sums are exact in any order.
		var energy float64
		for w := tr.Tiles[0].BBPath.Walk(core.Lower(g).CFG); ; {
			b, ok := w.Next()
			if !ok {
				break
			}
			for _, n := range g.Blocks[b].Nodes {
				energy += config.EnergyPerClassPJ[core.Classify(n.Instr)]
			}
		}
		if got := sys.Cores[0].Stats.EnergyPJ; got != energy {
			t.Errorf("%s: core energy %v pJ, per-class table over the trace gives %v", w.Name, got, energy)
		}
	}
}

// TestBoundednessCharacter checks that the suite exhibits the paper's
// characterization contrasts (Fig. 6): compute-bound kernels achieve higher
// IPC than the latency-bound ones.
func TestBoundednessCharacter(t *testing.T) {
	ipc := map[string]float64{}
	for _, name := range []string{"bfs", "sgemm", "sad", "ewsd"} {
		w := ByName(name)
		g, tr, err := w.Trace(1, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := soc.NewSPMD(config.XeonSystem(1), g, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(context.Background(), 2_000_000_000); err != nil {
			t.Fatal(err)
		}
		ipc[name] = sys.Result().IPC
	}
	t.Logf("IPC: %+v", ipc)
	if ipc["sgemm"] <= ipc["bfs"] {
		t.Errorf("compute-bound sgemm IPC (%.2f) should beat latency-bound bfs (%.2f)", ipc["sgemm"], ipc["bfs"])
	}
	if ipc["sad"] <= ipc["ewsd"] {
		t.Errorf("compute-bound sad IPC (%.2f) should beat latency-bound ewsd (%.2f)", ipc["sad"], ipc["ewsd"])
	}
}

func TestByName(t *testing.T) {
	if ByName("sgemm") == nil || ByName("mri-gridding") == nil {
		t.Error("registry lookup failed")
	}
	if ByName("nope") != nil {
		t.Error("registry invented a workload")
	}
	if len(Parboil()) != 11 {
		t.Errorf("Parboil suite has %d kernels, want 11", len(Parboil()))
	}
}

// TestDeterministicSetup: two setups of the same workload produce identical
// traces (required for reproducible experiments).
func TestDeterministicSetup(t *testing.T) {
	w1, w2 := SPMV(), SPMV()
	_, tr1, err := w1.Trace(2, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	_, tr2, err := w2.Trace(2, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.TotalDynInstrs() != tr2.TotalDynInstrs() || tr1.TotalMemEvents() != tr2.TotalMemEvents() {
		t.Error("workload setup is not deterministic")
	}
}

// TestCombinedKernelMixes: the fused alternating kernel agrees directionally
// with the harmonic composition used by Fig. 13 — sparse-heavy mixes favor
// systems that tolerate gather latency.
func TestCombinedKernelMixes(t *testing.T) {
	run := func(w *Workload, core config.CoreConfig, tiles int) int64 {
		g, tr, err := w.Trace(tiles, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := soc.NewSPMD(&config.SystemConfig{
			Name:  w.Name,
			Cores: []config.CoreSpec{{Core: core, Count: tiles}},
			Mem:   config.TableIIMem(),
		}, g, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		return sys.Cycles
	}
	for _, mix := range []struct {
		name  string
		dense float64
	}{
		{"combined-dense", 0.75}, {"combined-sparse", 0.25},
	} {
		w := Combined(mix.name, mix.dense)
		base := run(w, config.InOrderCore(), 1)
		quad := run(Combined(mix.name, mix.dense), config.InOrderCore(), 4)
		if quad >= base {
			t.Errorf("%s: 4 cores (%d) not faster than 1 (%d)", mix.name, quad, base)
		}
	}
	// Dense-heavy spends a larger share of single-core time in SGEMM than
	// sparse-heavy (the mix knob actually steers the dataset).
	dh := Combined("combined-dense", 0.75)
	sh := Combined("combined-sparse", 0.25)
	gd, trd, err := dh.Trace(1, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	gs, trs, err := sh.Trace(1, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	_ = gd
	_ = gs
	// Proxy: the dense-heavy variant executes more FP multiply work, the
	// sparse-heavy variant more gathers per instruction.
	ratioD := float64(trd.TotalMemEvents()) / float64(trd.TotalDynInstrs())
	ratioS := float64(trs.TotalMemEvents()) / float64(trs.TotalDynInstrs())
	if ratioS <= ratioD {
		t.Errorf("sparse-heavy mix should be more memory-intensive: %f vs %f", ratioS, ratioD)
	}
}

// TestSetupAllocations pins the bytes each kernel's Setup allocates outside
// the memory image at Small scale: its generator and the reference data its
// Check keeps, never a copy of what the image holds. A Setup that takes on
// more work edits its literal here, and that diff is what it costs. The two
// kernels whose Check rebuilds its reference from the image have that pinned
// too, over a real run.
func TestSetupAllocations(t *testing.T) {
	want := map[string]uint64{
		"bfs": 251280, "cutcp": 9760, "histo": 172432, "lbm": 185744, "mri-gridding": 284048,
		"mri-q": 16992, "sad": 38352, "sgemm": 18848, "spmv": 5584, "stencil": 144784, "tpacf": 14096,
		"sgemm-accel": 18848, "projection": 5536, "ewsd": 5584, "combined-equal": 11824,
	}
	wantCheck := map[string]uint64{"bfs": 0, "projection": 237568}
	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	setup := func(w *Workload) uint64 {
		mem := interp.NewMemory(w.memBytes())
		defer mem.Release()
		return allocs(func() { w.Setup(mem, Small) })
	}
	for _, w := range All() {
		// The first call may pay one-time costs, and what other goroutines
		// allocate meanwhile only ever adds: the least of two later calls.
		setup(w)
		if got := min(setup(w), setup(w)); got != want[w.Name] {
			t.Errorf("%s: Setup allocates %d bytes outside the image, want %d", w.Name, got, want[w.Name])
		}
	}
	for name, want := range wantCheck {
		w := ByName(name)
		f, err := w.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		mem := interp.NewMemory(w.memBytes())
		defer mem.Release()
		inst := w.Setup(mem, Small)
		if _, err := interp.Run(f, mem, inst.Args, interp.Options{NumTiles: 1}); err != nil {
			t.Fatal(err)
		}
		check := func() {
			if err := inst.Check(mem, 1); err != nil {
				t.Fatal(err)
			}
		}
		check()
		if got := min(allocs(check), allocs(check)); got != want {
			t.Errorf("%s: Check allocates %d bytes, want %d", name, got, want)
		}
	}
}
