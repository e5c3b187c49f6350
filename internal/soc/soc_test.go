package soc

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mosaicsim/internal/cc"
	"mosaicsim/internal/config"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/trace"
)

// traceSPMD compiles and traces a kernel across tiles.
func traceSPMD(t *testing.T, src string, tiles int, setup func(m *interp.Memory) []uint64, acc map[string]interp.AccFunc) (*ddg.Graph, *trace.Trace) {
	t.Helper()
	mod, err := cc.Compile(src, "t")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := mod.Func("kernel")
	m := interp.NewMemory(1 << 24)
	args := setup(m)
	res, err := interp.Run(f, m, args, interp.Options{NumTiles: tiles, Acc: acc})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return ddg.Build(f), res.Trace
}

// Block partitioning keeps each tile's accesses line-local (a stride-by-
// num_tiles partition with 64B lines would make every tile touch every
// line).
const spmdVecAdd = `
void kernel(double* A, double* B, double* C, long n) {
  long tid = tile_id();
  long nt = num_tiles();
  long chunk = (n + nt - 1) / nt;
  long lo = tid * chunk;
  long hi = lo + chunk;
  if (hi > n) {
    hi = n;
  }
  for (long i = lo; i < hi; i++) {
    C[i] = A[i] + B[i];
  }
}
`

func vecSetup(n int) func(m *interp.Memory) []uint64 {
	return func(m *interp.Memory) []uint64 {
		pa := m.AllocF64(make([]float64, n))
		pb := m.AllocF64(make([]float64, n))
		pc := m.Alloc(int64(n)*8, 64)
		return []uint64{pa, pb, pc, uint64(n)}
	}
}

func runSPMD(t *testing.T, src string, cores int, coreCfg config.CoreConfig, setup func(m *interp.Memory) []uint64) Result {
	t.Helper()
	g, tr := traceSPMD(t, src, cores, setup, nil)
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "test",
		Cores: []config.CoreSpec{{Core: coreCfg, Count: cores}},
		Mem:   config.TableIIMem(),
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(context.Background(), 200_000_000); err != nil {
		t.Fatal(err)
	}
	return sys.Result()
}

// Pending reports messages still buffered anywhere.
func (f *Fabric) Pending() int {
	n := 0
	for _, q := range f.queues {
		n += q.n
	}
	return n
}

func TestSingleCoreEndToEnd(t *testing.T) {
	r := runSPMD(t, spmdVecAdd, 1, config.OutOfOrderCore(), vecSetup(512))
	if r.Cycles <= 0 || r.Instrs <= 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Errorf("IPC = %.2f out of range", r.IPC)
	}
	if r.L1.Accesses == 0 {
		t.Error("no L1 traffic recorded")
	}
	if r.DRAM.Reads == 0 {
		t.Error("no DRAM traffic for a cold working set")
	}
	if r.EnergyPJ <= 0 {
		t.Error("no energy estimate")
	}
}

func TestMultiCoreScaling(t *testing.T) {
	cycles := map[int]int64{}
	for _, n := range []int{1, 2, 4} {
		r := runSPMD(t, spmdVecAdd, n, config.OutOfOrderCore(), vecSetup(2048))
		cycles[n] = r.Cycles
	}
	if !(cycles[1] > cycles[2] && cycles[2] > cycles[4]) {
		t.Errorf("no parallel speedup: %v", cycles)
	}
	speedup4 := float64(cycles[1]) / float64(cycles[4])
	if speedup4 < 1.8 {
		t.Errorf("4-core speedup %.2fx too low", speedup4)
	}
}

func TestDAEPairThroughFabric(t *testing.T) {
	src := `
void kernel(double* A, double* out, long n) {
  long tid = tile_id();
  if (tid == 0) {
    for (long i = 0; i < n; i++) {
      send(1, A[i]);
    }
  } else {
    double acc = 0.0;
    for (long i = 0; i < n; i++) {
      acc += recv_double(0);
    }
    out[0] = acc;
  }
}
`
	g, tr := traceSPMD(t, src, 2, func(m *interp.Memory) []uint64 {
		vals := make([]float64, 400)
		for i := range vals {
			vals[i] = float64(i)
		}
		return []uint64{m.AllocF64(vals), m.Alloc(8, 8), 400}
	}, nil)
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "dae",
		Cores: []config.CoreSpec{{Core: config.InOrderCore(), Count: 2}},
		Mem:   config.TableIIMem(),
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(context.Background(), 200_000_000); err != nil {
		t.Fatal(err)
	}
	if sys.Fabric.Sends() != 400 || sys.Fabric.Recvs() != 400 {
		t.Errorf("fabric sends=%d recvs=%d, want 400/400", sys.Fabric.Sends(), sys.Fabric.Recvs())
	}
	if sys.Fabric.Pending() != 0 {
		t.Errorf("%d messages stuck in fabric", sys.Fabric.Pending())
	}
}

// TestWindowRingWraps drives cores whose window is smaller than their blocks
// (so the ring holds one oversized block at a time and wraps every few
// launches) out of order, in order, and as a DeSC supply/compute pair whose
// fused sends and parked recvs reach across the wrap: every traced
// instruction retires, and skipping changes nothing.
func TestWindowRingWraps(t *testing.T) {
	const pairSrc = `
void kernel(double* A, double* B, double* out, long n) {
  if (tile_id() == 0) {
    for (long i = 0; i < n; i++) {
      send(1, A[i]);
      send(1, B[i]);
    }
  } else {
    for (long i = 0; i < n; i++) {
      out[i] = recv_double(0);
      out[i] = out[i] + recv_double(0);
    }
  }
}
`
	desc := config.InOrderCore()
	desc.DecoupledSupply = true
	for _, tc := range []struct {
		name  string
		src   string
		tiles int
		core  config.CoreConfig
	}{
		{"ooo", spmdVecAdd, 1, config.OutOfOrderCore()},
		{"inorder", spmdVecAdd, 1, config.InOrderCore()},
		{"desc-pair", pairSrc, 2, desc},
	} {
		for _, window := range []int{1, 3} {
			g, tr := traceSPMD(t, tc.src, tc.tiles, vecSetup(300), nil)
			tc.core.WindowSize = window
			var results []Result
			for _, noskip := range []bool{true, false} {
				sys, err := NewSPMD(&config.SystemConfig{
					Name:  tc.name,
					Cores: []config.CoreSpec{{Core: tc.core, Count: tc.tiles}},
					Mem:   config.TableIIMem(),
				}, g, tr, nil)
				if err != nil {
					t.Fatal(err)
				}
				sys.DisableCycleSkipping = noskip
				if err := sys.Run(context.Background(), 200_000_000); err != nil {
					t.Fatalf("%s window %d: %v", tc.name, window, err)
				}
				results = append(results, sys.Result())
			}
			if got, want := results[0].Instrs, tr.TotalDynInstrs(); got != want || want < 1000 {
				t.Errorf("%s window %d: retired %d instructions, trace has %d (want > 1000)", tc.name, window, got, want)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("%s window %d: results diverge with cycle skipping:\nnaive: %+v\nskip:  %+v", tc.name, window, results[0], results[1])
			}
		}
	}
}

func TestFabricBackpressure(t *testing.T) {
	f := NewFabric(2, 1)
	if !f.TrySend(0, 1, 0) || !f.TrySend(0, 1, 0) {
		t.Fatal("sends within capacity failed")
	}
	if f.TrySend(0, 1, 0) {
		t.Error("send beyond capacity succeeded")
	}
	if f.TryRecv(1, 0, 0) {
		t.Error("message consumed before its arrival cycle")
	}
	if !f.TryRecv(1, 0, 1) {
		t.Error("matured message not consumed")
	}
	if !f.TrySend(0, 1, 5) {
		t.Error("freed capacity not reusable")
	}
}

type fixedAccel struct {
	cycles int64
	calls  int
}

func (a *fixedAccel) Invoke(params []int64, concurrent int) (AccelResult, error) {
	a.calls++
	return AccelResult{Cycles: a.cycles, Bytes: 1024, EnergyPJ: 5000}, nil
}

func TestAcceleratorThroughSystem(t *testing.T) {
	src := `
void kernel(double* A, long n) {
  acc_fixed(A, n);
  A[0] = 1.0;
}
`
	g, tr := traceSPMD(t, src, 1, func(m *interp.Memory) []uint64 {
		return []uint64{m.AllocF64(make([]float64, 16)), 16}
	}, map[string]interp.AccFunc{"acc_fixed": func(m *interp.Memory, p []int64) {}})
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "accel",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}},
		Mem:   config.TableIIMem(),
	}, g, tr, map[string]AccelModel{"acc_fixed": &fixedAccel{cycles: 30000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(context.Background(), 100_000_000); err != nil {
		t.Fatal(err)
	}
	r := sys.Result()
	if r.Cycles < 30000 {
		t.Errorf("cycles %d below accelerator latency", r.Cycles)
	}
	if r.AccelCalls != 1 || r.AccelBytes != 1024 {
		t.Errorf("accel stats wrong: %+v", r)
	}
	if sys.AccelEnergy() != 5000 {
		t.Errorf("accel energy = %g", sys.AccelEnergy())
	}
}

// concAccel records the highest `concurrent` value any invocation observed.
type concAccel struct {
	cycles  int64
	maxConc int
}

func (a *concAccel) Invoke(params []int64, concurrent int) (AccelResult, error) {
	if concurrent > a.maxConc {
		a.maxConc = concurrent
	}
	return AccelResult{Cycles: a.cycles, Bytes: 64, EnergyPJ: 1}, nil
}

// TestAccelConcurrencyObserved: two tiles invoke the same long-running
// accelerator at nearly the same cycle, so the second invocation must see
// concurrent > 0. The old accounting decremented outstanding[] synchronously
// inside Invoke, so concurrent was always 0 and the §IV-B bandwidth-sharing
// scaling never engaged.
func TestAccelConcurrencyObserved(t *testing.T) {
	src := `
void kernel(double* A, long n) {
  acc_fixed(A, n);
  A[tile_id()] = 1.0;
}
`
	g, tr := traceSPMD(t, src, 2, func(m *interp.Memory) []uint64 {
		return []uint64{m.AllocF64(make([]float64, 16)), 16}
	}, map[string]interp.AccFunc{"acc_fixed": func(m *interp.Memory, p []int64) {}})
	ca := &concAccel{cycles: 50000}
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "conc",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 2}},
		Mem:   config.TableIIMem(),
	}, g, tr, map[string]AccelModel{"acc_fixed": ca})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(context.Background(), 100_000_000); err != nil {
		t.Fatal(err)
	}
	if sys.AccelCalls() != 2 {
		t.Fatalf("accel calls = %d, want 2", sys.AccelCalls())
	}
	if ca.maxConc < 1 {
		t.Error("overlapping invocations observed concurrent = 0: outstanding[] is decremented before simulated completion")
	}
}

// seqAccel answers every invocation with a fixed latency and records the
// concurrency each invocation was handed, in invocation order.
type seqAccel struct {
	cycles int64
	seen   []int
}

func (a *seqAccel) Invoke(params []int64, concurrent int) (AccelResult, error) {
	a.seen = append(a.seen, concurrent)
	return AccelResult{Cycles: a.cycles, Bytes: 64, EnergyPJ: 1}, nil
}

// TestAccelReleaseAtCycleBoundary pins which invocations an accelerator
// counts as outstanding. A completion due at cycle c is released for the
// first invocation at or after c. An invocation issued earlier in the same
// cycle stays outstanding, even with a latency of 0. Latency 0 separates
// releasing on every invocation from releasing once per cycle. Latency 2, the
// spacing of back-to-back calls on one tile, separates releasing the
// completions due at now from releasing only earlier ones.
func TestAccelReleaseAtCycleBoundary(t *testing.T) {
	const backToBack = `
void kernel(double* A, long n) {
  for (long i = 0; i < n; i++) {
    acc_x(A, i);
  }
}
`
	const onePerTile = `
void kernel(double* A, long n) {
  acc_x(A, n);
  A[tile_id()] = 1.0;
}
`
	cases := []struct {
		name    string
		src     string
		clocks  []int
		latency int64
		want    []int
	}{
		{"one tile lat 0", backToBack, []int{2000}, 0, []int{0, 0, 0, 0, 0, 0}},
		{"one tile lat 1", backToBack, []int{2000}, 1, []int{0, 0, 0, 0, 0, 0}},
		{"one tile lat 2", backToBack, []int{2000}, 2, []int{0, 0, 0, 0, 0, 0}},
		{"one tile lat 300", backToBack, []int{2000}, 300, []int{0, 1, 2, 3, 4, 5}},
		{"one per tile equal clocks lat 0", onePerTile, []int{2000, 2000}, 0, []int{0, 1}},
		{"one per tile equal clocks lat 1", onePerTile, []int{2000, 2000}, 1, []int{0, 1}},
		{"one per tile equal clocks lat 300", onePerTile, []int{2000, 2000}, 300, []int{0, 1}},
		{"one per tile mixed clocks lat 0", onePerTile, []int{2000, 1000}, 0, []int{0, 1}},
		{"one per tile mixed clocks lat 1", onePerTile, []int{2000, 1000}, 1, []int{0, 1}},
		{"one per tile mixed clocks lat 300", onePerTile, []int{2000, 1000}, 300, []int{0, 1}},
		{"back-to-back mixed clocks lat 0", backToBack, []int{2000, 1000}, 0, []int{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0}},
		{"back-to-back mixed clocks lat 1", backToBack, []int{2000, 1000}, 1, []int{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0}},
		{"back-to-back mixed clocks lat 2", backToBack, []int{2000, 1000}, 2, []int{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0}},
		{"back-to-back mixed clocks lat 300", backToBack, []int{2000, 1000}, 300, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
	}
	for _, tc := range cases {
		g, tr := traceSPMD(t, tc.src, len(tc.clocks), func(m *interp.Memory) []uint64 {
			return []uint64{m.AllocF64(make([]float64, 16)), 6}
		}, map[string]interp.AccFunc{"acc_x": func(m *interp.Memory, p []int64) {}})
		for _, noskip := range []bool{false, true} {
			specs := make([]TileSpec, len(tc.clocks))
			for i, mhz := range tc.clocks {
				cfg := config.OutOfOrderCore()
				cfg.ClockMHz = mhz
				specs[i] = TileSpec{Cfg: cfg, Graph: g, TT: tr.Tiles[i]}
			}
			a := &seqAccel{cycles: tc.latency}
			sys, err := New("release", specs, config.TableIIMem(), map[string]AccelModel{"acc_x": a})
			if err != nil {
				t.Fatal(err)
			}
			sys.DisableCycleSkipping = noskip
			if err := sys.Run(context.Background(), 10_000_000); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.seen, tc.want) {
				t.Errorf("%s (noskip %v): concurrent %#v, want %#v", tc.name, noskip, a.seen, tc.want)
			}
		}
	}
}

// TestBarrierWithNonParticipantTile: a heterogeneous (DAE-style) system where
// one tile's trace has barrier ops and the other's has none must complete.
// The legacy all-tiles barrier rule waited on the barrier-free tile forever
// and burned the whole cycle limit.
func TestBarrierWithNonParticipantTile(t *testing.T) {
	barSrc := `
void kernel(double* A, long n) {
  A[0] = 1.0;
  barrier();
  A[1] = 2.0;
}
`
	plainSrc := `
void kernel(double* A, long n) {
  for (long i = 0; i < n; i++) {
    A[i] = 3.0;
  }
}
`
	setup := func(m *interp.Memory) []uint64 {
		return []uint64{m.AllocF64(make([]float64, 64)), 64}
	}
	gB, trB := traceSPMD(t, barSrc, 1, setup, nil)
	gP, trP := traceSPMD(t, plainSrc, 1, setup, nil)
	sys, err := New("hetero-barrier", []TileSpec{
		{Cfg: config.InOrderCore(), Graph: gB, TT: trB.Tiles[0]},
		{Cfg: config.InOrderCore(), Graph: gP, TT: trP.Tiles[0]},
	}, config.TableIIMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(context.Background(), 10_000_000); err != nil {
		t.Fatalf("system with a barrier-free tile did not complete: %v", err)
	}
	for i, c := range sys.Cores {
		if !c.Done() {
			t.Errorf("tile %d never finished", i)
		}
	}
}

// TestBarrierCountMismatchIsError: participating tiles whose traces execute
// different numbers of barriers are a guaranteed deadlock; New must say so
// instead of letting Run burn the cycle limit.
func TestBarrierCountMismatchIsError(t *testing.T) {
	oneSrc := `
void kernel(double* A, long n) {
  barrier();
  A[0] = 1.0;
}
`
	twoSrc := `
void kernel(double* A, long n) {
  barrier();
  A[1] = 2.0;
  barrier();
}
`
	setup := func(m *interp.Memory) []uint64 {
		return []uint64{m.AllocF64(make([]float64, 16)), 16}
	}
	g1, tr1 := traceSPMD(t, oneSrc, 1, setup, nil)
	g2, tr2 := traceSPMD(t, twoSrc, 1, setup, nil)
	_, err := New("mismatch", []TileSpec{
		{Cfg: config.InOrderCore(), Graph: g1, TT: tr1.Tiles[0]},
		{Cfg: config.InOrderCore(), Graph: g2, TT: tr2.Tiles[0]},
	}, config.TableIIMem(), nil)
	if err == nil || !strings.Contains(err.Error(), "barrier") {
		t.Errorf("want descriptive barrier-deadlock error, got %v", err)
	}
}

func TestMissingAcceleratorModelFails(t *testing.T) {
	src := `
void kernel(double* A, long n) {
  acc_missing(A, n);
}
`
	g, tr := traceSPMD(t, src, 1, func(m *interp.Memory) []uint64 {
		return []uint64{m.AllocF64(make([]float64, 4)), 4}
	}, map[string]interp.AccFunc{"acc_missing": func(m *interp.Memory, p []int64) {}})
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "x",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}},
		Mem:   config.TableIIMem(),
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("missing accelerator model should panic during simulation")
		}
	}()
	_ = sys.Run(context.Background(), 1_000_000)
}

func TestConfigTraceMismatch(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 2, vecSetup(64), nil)
	_, err := NewSPMD(&config.SystemConfig{
		Name:  "bad",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 4}},
		Mem:   config.TableIIMem(),
	}, g, tr, nil)
	if err == nil || !strings.Contains(err.Error(), "traced tiles") {
		t.Errorf("want tile-count mismatch error, got %v", err)
	}
}

func TestSystemDeterminism(t *testing.T) {
	a := runSPMD(t, spmdVecAdd, 4, config.OutOfOrderCore(), vecSetup(1024))
	b := runSPMD(t, spmdVecAdd, 4, config.OutOfOrderCore(), vecSetup(1024))
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs {
		t.Errorf("nondeterministic results: %d/%d vs %d/%d", a.Cycles, a.Instrs, b.Cycles, b.Instrs)
	}
}

// checkStallsFit asserts that no core spends more cycles stalled than it ran.
func checkStallsFit(t *testing.T, res Result) {
	t.Helper()
	for i, cs := range res.CoreStats {
		if sum := cs.MAOStalls + cs.FUStalls + cs.WindowStalls + cs.CommStalls; sum > cs.Cycles {
			t.Errorf("core %d: %d stall cycles in %d cycles", i, sum, cs.Cycles)
		}
	}
}

func TestMixedClockTiles(t *testing.T) {
	fast := config.OutOfOrderCore() // 2000 MHz
	slow := config.OutOfOrderCore()
	slow.Name = "slow"
	slow.ClockMHz = 1000
	g, tr := traceSPMD(t, spmdVecAdd, 2, vecSetup(512), nil)
	for _, noskip := range []bool{false, true} {
		sys, err := New("mixed", []TileSpec{
			{Cfg: fast, Graph: g, TT: tr.Tiles[0]},
			{Cfg: slow, Graph: g, TT: tr.Tiles[1]},
		}, config.TableIIMem(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sys.DisableCycleSkipping = noskip
		if err := sys.Run(context.Background(), 200_000_000); err != nil {
			t.Fatal(err)
		}
		f, s := sys.Cores[0], sys.Cores[1]
		if !f.Done() || !s.Done() {
			t.Fatal("tiles not finished")
		}
		if s.FinishCycle() <= f.FinishCycle() {
			t.Errorf("half-clock tile finished at %d, full-clock at %d; slow tile should finish later", s.FinishCycle(), f.FinishCycle())
		}
		checkStallsFit(t, sys.Result())
	}
}

func TestBandwidthBoundScalingIsSublinear(t *testing.T) {
	// A streaming kernel with a tiny per-element compute: with DRAM
	// bandwidth clamped hard, 8 cores cannot be 8x faster than 1.
	src := spmdVecAdd
	low := config.TableIIMem()
	low.DRAM.BandwidthGBs = 2
	cyc := map[int]int64{}
	for _, n := range []int{1, 8} {
		g, tr := traceSPMD(t, src, n, vecSetup(16384), nil)
		sys, err := NewSPMD(&config.SystemConfig{
			Name:  "bw",
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: n}},
			Mem:   low,
		}, g, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(context.Background(), 1_000_000_000); err != nil {
			t.Fatal(err)
		}
		cyc[n] = sys.Cycles
	}
	speedup := float64(cyc[1]) / float64(cyc[8])
	if speedup > 6 {
		t.Errorf("bandwidth-bound speedup %.2fx is implausibly linear", speedup)
	}
	if speedup < 1 {
		t.Errorf("8 cores slower than 1: %.2fx", speedup)
	}
}

func TestNoCHopLatency(t *testing.T) {
	// On a 4-wide mesh, tile 0 -> tile 3 is 3 hops; with 5-cycle hops the
	// message matures 15 cycles later than a directly-attached pair.
	near := NewFabric(16, 1)
	far := NewFabric(16, 1)
	far.MeshWidth = 4
	far.HopCycles = 5
	if !near.TrySend(0, 3, 100) || !far.TrySend(0, 3, 100) {
		t.Fatal("sends failed")
	}
	if !near.TryRecv(3, 0, 101) {
		t.Error("flat fabric message should mature after base latency")
	}
	if far.TryRecv(3, 0, 101+14) {
		t.Error("mesh message matured before the hop latency elapsed")
	}
	if !far.TryRecv(3, 0, 101+15) {
		t.Error("mesh message never matured")
	}
	if far.HopsTotal() != 3 {
		t.Errorf("HopsTotal = %d, want 3", far.HopsTotal())
	}
}

func TestNoCSlowsDAEPairs(t *testing.T) {
	// The same DAE-style ping of messages costs more wall-clock on a mesh
	// with slow links.
	src := `
void kernel(double* A, double* out, long n) {
  long tid = tile_id();
  if (tid == 0) {
    for (long i = 0; i < n; i++) { send(3, A[i]); }
  } else {
    if (tid == 3) {
      double acc = 0.0;
      for (long i = 0; i < n; i++) { acc += recv_double(0); }
      out[0] = acc;
    }
  }
}
`
	run := func(noc *config.NoCConfig) int64 {
		g, tr := traceSPMD(t, src, 4, func(m *interp.Memory) []uint64 {
			return []uint64{m.AllocF64(make([]float64, 500)), m.Alloc(8, 8), 500}
		}, nil)
		cfg := &config.SystemConfig{
			Name:  "noc",
			Cores: []config.CoreSpec{{Core: config.InOrderCore(), Count: 4}},
			Mem:   config.TableIIMem(),
			NoC:   noc,
		}
		sys, err := NewSPMD(cfg, g, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		return sys.Cycles
	}
	flat := run(nil)
	mesh := run(&config.NoCConfig{MeshWidth: 2, HopCycles: 40})
	if mesh <= flat {
		t.Errorf("mesh with 40-cycle hops (%d) should be slower than flat fabric (%d)", mesh, flat)
	}
}

func TestDirectoryCoherenceThroughSystem(t *testing.T) {
	// Four tiles atomically hammer one shared counter line: with the
	// directory enabled, ownership ping-pongs and the run slows down.
	src := `
void kernel(long* ctr, long n) {
  long tid = tile_id();
  for (long i = 0; i < n; i++) {
    atomic_add(ctr, 1);
  }
}
`
	run := func(directory bool) int64 {
		g, tr := traceSPMD(t, src, 4, func(m *interp.Memory) []uint64 {
			return []uint64{m.AllocI64([]int64{0}), 200}
		}, nil)
		mem := config.TableIIMem()
		mem.Directory = directory
		cfg := &config.SystemConfig{
			Name:  "coh",
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 4}},
			Mem:   mem,
		}
		sys, err := NewSPMD(cfg, g, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if directory {
			if sys.Hier.Dir == nil || sys.Hier.Dir.Stats.Invalidations == 0 {
				t.Error("directory recorded no invalidations on a contended counter")
			}
		}
		return sys.Cycles
	}
	coherent := run(true)
	incoherent := run(false)
	if coherent <= incoherent {
		t.Errorf("coherent contended atomics (%d) should be slower than incoherent (%d)", coherent, incoherent)
	}
}

func TestEnergyBreakdownSums(t *testing.T) {
	r := runSPMD(t, spmdVecAdd, 2, config.OutOfOrderCore(), vecSetup(1024))
	if r.Energy.CoresPJ <= 0 || r.Energy.L1PJ <= 0 || r.Energy.DRAMPJ <= 0 {
		t.Errorf("missing energy components: %+v", r.Energy)
	}
	if diff := r.EnergyPJ - r.Energy.TotalPJ(); diff != 0 {
		t.Errorf("EnergyPJ (%g) != component sum (%g)", r.EnergyPJ, r.Energy.TotalPJ())
	}
}

// TestRunCycleLimitError exercises the timeout path: the error must name the
// effective limit so users can tell a too-small explicit limit from the 2^40
// default guard.
func TestRunCycleLimitError(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 1, vecSetup(512), nil)
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "limit-test",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}},
		Mem:   config.TableIIMem(),
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run(context.Background(), 10)
	if err == nil {
		t.Fatal("Run(10) completed a 512-element vecadd; expected a cycle-limit error")
	}
	if !strings.Contains(err.Error(), "cycle limit of 10") {
		t.Errorf("timeout error does not surface the effective limit: %v", err)
	}
}

// pingPongSrc exercises both queue directions under backpressure: tile 0
// sends up (src < dst) and tile 1 sends down (src > dst).
const pingPongSrc = `
void kernel(double* A, double* out, long n) {
  long tid = tile_id();
  if (tid == 0) {
    double acc = 0.0;
    for (long i = 0; i < n; i++) {
      send(1, A[i]);
      acc = acc + recv_double(1);
    }
    out[0] = acc;
  } else {
    for (long i = 0; i < n; i++) {
      double v = recv_double(0);
      send(0, v + v);
    }
  }
}
`

// barrierStepSrc makes every tile rendezvous on every iteration.
const barrierStepSrc = `
void kernel(double* A, long n) {
  long tid = tile_id();
  for (long i = 0; i < n; i++) {
    A[tid * 8] = A[tid * 8] + 1.0;
    barrier();
  }
}
`

// TestCycleSkippingAccounting checks the Interleaver's skip counters over
// hand-built systems whose frozen stretches end differently — a DRAM return,
// a fabric arrival under backpressure (with and without transfer latency), a
// barrier release, NoC hops, a directory recall: the reported cycle count
// must equal stepped + skipped - 1 (cycles are zero-based), skipping must
// engage, and disabling it must both zero the skip counter and leave the
// Result byte-identical.
func TestCycleSkippingAccounting(t *testing.T) {
	inorder := func(cores, maxMessages int) *config.SystemConfig {
		cc := config.InOrderCore()
		if maxMessages > 0 {
			cc.MaxMessages = maxMessages
		}
		return &config.SystemConfig{
			Name:  "skip-test",
			Cores: []config.CoreSpec{{Core: cc, Count: cores}},
			Mem:   config.TableIIMem(),
		}
	}
	ooo := func(cores int) *config.SystemConfig {
		return &config.SystemConfig{
			Name:  "skip-test",
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: cores}},
			Mem:   config.TableIIMem(),
		}
	}
	pingPongSetup := func(m *interp.Memory) []uint64 {
		vals := make([]float64, 300)
		for i := range vals {
			vals[i] = float64(i)
		}
		return []uint64{m.AllocF64(vals), m.Alloc(8, 8), 300}
	}
	cases := []struct {
		name  string
		src   string
		setup func(m *interp.Memory) []uint64
		cfg   func() *config.SystemConfig
	}{
		{"dram-bound-1tile", spmdVecAdd, vecSetup(512), func() *config.SystemConfig { return ooo(1) }},
		{"pingpong-backpressure", pingPongSrc, pingPongSetup, func() *config.SystemConfig { return inorder(2, 4) }},
		{"zero-latency-pingpong", pingPongSrc, pingPongSetup, func() *config.SystemConfig {
			// A zero-cost fabric delivers messages the cycle they are sent,
			// in both queue directions.
			sc := inorder(2, 4)
			zero := int64(0)
			sc.FabricLatency = &zero
			return sc
		}},
		{"barriers-4tile", barrierStepSrc, func(m *interp.Memory) []uint64 {
			return []uint64{m.AllocF64(make([]float64, 64)), 40}
		}, func() *config.SystemConfig { return inorder(4, 0) }},
		{"mesh-vecadd", spmdVecAdd, vecSetup(1024), func() *config.SystemConfig {
			sc := inorder(4, 0)
			sc.NoC = &config.NoCConfig{MeshWidth: 2, HopCycles: 4}
			return sc
		}},
		{"coherent-directory", spmdVecAdd, vecSetup(512), func() *config.SystemConfig {
			sc := inorder(4, 0)
			sc.Mem.Directory = true
			return sc
		}},
		{"coherent-ooo-pair", spmdVecAdd, vecSetup(256), func() *config.SystemConfig {
			sc := ooo(2)
			sc.Mem.Directory = true
			return sc
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := tc.cfg()
			run := func(noskip bool) (*System, []byte) {
				topo, err := Resolve(sc, false)
				if err != nil {
					t.Fatal(err)
				}
				g, tr := traceSPMD(t, tc.src, len(topo.Tiles), tc.setup, nil)
				sys, err := Build(topo, Binding{Graph: g, Trace: tr}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := sys.Fabric.Latency; got != sc.EffectiveFabricLatency() {
					t.Fatalf("fabric latency = %d, config says %d", got, sc.EffectiveFabricLatency())
				}
				sys.DisableCycleSkipping = noskip
				if err := sys.Run(context.Background(), 0); err != nil {
					t.Fatalf("run (noskip=%v): %v", noskip, err)
				}
				checkStallsFit(t, sys.Result())
				data, err := json.Marshal(sys.Result())
				if err != nil {
					t.Fatal(err)
				}
				return sys, data
			}
			skip, got := run(false)
			if skip.SkippedCycles == 0 {
				t.Error("cycle skipping never engaged")
			}
			if sum := skip.SteppedCycles + skip.SkippedCycles; sum != skip.Cycles+1 {
				t.Errorf("stepped (%d) + skipped (%d) = %d, want cycles+1 = %d",
					skip.SteppedCycles, skip.SkippedCycles, sum, skip.Cycles+1)
			}
			naive, want := run(true)
			if naive.SkippedCycles != 0 {
				t.Errorf("naive loop reported %d skipped cycles", naive.SkippedCycles)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("results diverge with cycle skipping enabled:\nnaive: %s\nskip:  %s", want, got)
			}
		})
	}
}

// TestOnProgressHook checks the in-flight progress callback: it fires during
// a run of any real length, reports monotonically advancing positions, and
// its stepped/skipped split never regresses.
func TestOnProgressHook(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 1, vecSetup(4096), nil)
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "progress",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}},
		Mem:   config.TableIIMem(),
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ups []ProgressUpdate
	sys.OnProgress = func(u ProgressUpdate) { ups = append(ups, u) }
	if err := sys.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 {
		t.Fatal("OnProgress never fired on a multi-thousand-cycle run")
	}
	prev := ProgressUpdate{Cycle: -1}
	for i, u := range ups {
		if u.Cycle < prev.Cycle {
			t.Fatalf("update %d cycle %d regressed below %d", i, u.Cycle, prev.Cycle)
		}
		if u.Stepped < prev.Stepped || u.Skipped < prev.Skipped {
			t.Fatalf("update %d stepped/skipped (%d/%d) regressed below %d/%d",
				i, u.Stepped, u.Skipped, prev.Stepped, prev.Skipped)
		}
		if u.Cycle > sys.Cycles {
			t.Fatalf("update %d cycle %d beyond final cycle count %d", i, u.Cycle, sys.Cycles)
		}
		prev = u
	}
}
