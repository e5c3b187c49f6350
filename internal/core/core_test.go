package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"mosaicsim/internal/cc"
	"mosaicsim/internal/config"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/mem"
	"mosaicsim/internal/trace"
)

// fakeMem completes every access after a fixed latency.
type fakeMem struct {
	lat      int64
	accesses int64
}

func (f *fakeMem) AccessAt(core int, addr uint64, size int, kind mem.Kind, now int64, w mem.Waiter, tag int64) {
	f.accesses++
	w.MemDone(tag, now+f.lat)
}

// fakeFabric never blocks.
type fakeFabric struct{ sends, recvs int64 }

func (f *fakeFabric) TrySend(src, dst int, now int64) bool { f.sends++; return true }
func (f *fakeFabric) TryRecv(dst, src int, now int64) bool { f.recvs++; return true }
func (f *fakeFabric) BarrierArrive(tile int) int64         { return 0 }
func (f *fakeFabric) BarrierReleased(seq int64) bool       { return true }
func (f *fakeFabric) TrySendFuture(src, dst int) (func(int64), bool) {
	f.sends++
	return func(int64) {}, true
}

// traceKernel compiles src, traces `kernel` with the given args on one tile,
// and returns the DDG and tile trace.
func traceKernel(t *testing.T, src string, setup func(m *interp.Memory) []uint64) (*ddg.Graph, *trace.TileTrace) {
	t.Helper()
	mod, err := cc.Compile(src, "t")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := mod.Func("kernel")
	m := interp.NewMemory(1 << 22)
	args := setup(m)
	res, err := interp.Run(f, m, args, interp.Options{})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return ddg.Build(f), res.Trace.Tiles[0]
}

// runCore drives a single tile to completion and returns it.
func runCore(t *testing.T, cfg config.CoreConfig, g *ddg.Graph, tt *trace.TileTrace, memLat int64) *Core {
	t.Helper()
	c := New(0, cfg, Lower(g), tt, &fakeMem{lat: memLat}, &fakeFabric{}, nil)
	for now := int64(0); ; now++ {
		if !c.Step(now) {
			break
		}
		if now > 50_000_000 {
			t.Fatal("core never finished")
		}
	}
	return c
}

const sumSrc = `
void kernel(double* A, long n) {
  double acc = 0.0;
  for (long i = 0; i < n; i++) {
    acc += A[i];
  }
  A[0] = acc;
}
`

const indepSrc = `
void kernel(double* A, double* B, long n) {
  for (long i = 0; i < n; i++) {
    B[i] = A[i] * 2.0 + 1.0;
  }
}
`

func setupArray(n int) func(m *interp.Memory) []uint64 {
	return func(m *interp.Memory) []uint64 {
		pa := m.AllocF64(make([]float64, n))
		return []uint64{pa, uint64(n)}
	}
}

func setupTwoArrays(n int) func(m *interp.Memory) []uint64 {
	return func(m *interp.Memory) []uint64 {
		pa := m.AllocF64(make([]float64, n))
		pb := m.Alloc(int64(n)*8, 64)
		return []uint64{pa, pb, uint64(n)}
	}
}

func TestRetiresExactlyTraceInstructions(t *testing.T) {
	g, tt := traceKernel(t, sumSrc, setupArray(64))
	c := runCore(t, config.OutOfOrderCore(), g, tt, 4)
	if c.Stats.Instrs != tt.DynInstrs {
		t.Errorf("retired %d instructions, trace has %d", c.Stats.Instrs, tt.DynInstrs)
	}
	if c.Stats.Cycles <= 0 {
		t.Error("no cycles accumulated")
	}
	if c.Stats.Loads != 64 || c.Stats.Stores != 1 {
		t.Errorf("loads=%d stores=%d, want 64/1", c.Stats.Loads, c.Stats.Stores)
	}
	if c.Stats.EnergyPJ <= 0 {
		t.Error("no energy accumulated")
	}
}

func TestOutOfOrderBeatsInOrder(t *testing.T) {
	g, tt := traceKernel(t, indepSrc, setupTwoArrays(256))
	ooo := runCore(t, config.OutOfOrderCore(), g, tt, 20)
	g2, tt2 := traceKernel(t, indepSrc, setupTwoArrays(256))
	ino := runCore(t, config.InOrderCore(), g2, tt2, 20)
	if ooo.Stats.Cycles >= ino.Stats.Cycles {
		t.Errorf("OoO (%d cycles) should beat InO (%d cycles)", ooo.Stats.Cycles, ino.Stats.Cycles)
	}
	if ratio := float64(ino.Stats.Cycles) / float64(ooo.Stats.Cycles); ratio < 2 {
		t.Errorf("OoO speedup on independent work = %.2fx, want >= 2x", ratio)
	}
}

func TestIssueWidthMatters(t *testing.T) {
	mk := func(width int) int64 {
		cfg := config.OutOfOrderCore()
		cfg.IssueWidth = width
		g, tt := traceKernel(t, indepSrc, setupTwoArrays(256))
		return runCore(t, cfg, g, tt, 2).Stats.Cycles
	}
	w1, w4 := mk(1), mk(4)
	if w4 >= w1 {
		t.Errorf("width 4 (%d) should beat width 1 (%d)", w4, w1)
	}
}

func TestWindowSizeMatters(t *testing.T) {
	mk := func(window int) int64 {
		cfg := config.OutOfOrderCore()
		cfg.WindowSize = window
		g, tt := traceKernel(t, indepSrc, setupTwoArrays(256))
		return runCore(t, cfg, g, tt, 100).Stats.Cycles // long memory latency
	}
	small, big := mk(8), mk(256)
	if big >= small {
		t.Errorf("window 256 (%d) should beat window 8 (%d) under long memory latency", big, small)
	}
}

func TestIPCBoundedByIssueWidth(t *testing.T) {
	g, tt := traceKernel(t, indepSrc, setupTwoArrays(512))
	cfg := config.OutOfOrderCore()
	c := runCore(t, cfg, g, tt, 1)
	if ipc := c.Stats.IPC(); ipc > float64(cfg.IssueWidth) {
		t.Errorf("IPC %.2f exceeds issue width %d", ipc, cfg.IssueWidth)
	}
	if c.Stats.Cycles < tt.DynInstrs/int64(cfg.IssueWidth) {
		t.Errorf("cycles %d below theoretical minimum %d", c.Stats.Cycles, tt.DynInstrs/int64(cfg.IssueWidth))
	}
}

func TestDeterminism(t *testing.T) {
	g, tt := traceKernel(t, sumSrc, setupArray(128))
	a := runCore(t, config.OutOfOrderCore(), g, tt, 7).Stats
	b := runCore(t, config.OutOfOrderCore(), g, tt, 7).Stats
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

const rawSrc = `
void kernel(double* A, long n) {
  for (long i = 0; i < n; i++) {
    A[0] = A[0] + (double)i;   // serial read-modify-write on one address
  }
}
`

func TestMAOSerializesSameAddress(t *testing.T) {
	g, tt := traceKernel(t, rawSrc, setupArray(4))
	c := runCore(t, config.OutOfOrderCore(), g, tt, 30)
	// 32 iterations of load+store on one address with 30-cycle memory: the
	// RAW chain forces >= n*(2*30) cycles of memory serialization.
	minCycles := int64(4 * 2 * 30)
	if c.Stats.Cycles < minCycles {
		t.Errorf("cycles %d below RAW serialization floor %d", c.Stats.Cycles, minCycles)
	}
}

func TestAliasSpeculationHelpsIndependentAccesses(t *testing.T) {
	run := func(spec bool) int64 {
		cfg := config.OutOfOrderCore()
		cfg.PerfectAliasSpec = spec
		g, tt := traceKernel(t, indepSrc, setupTwoArrays(128))
		return runCore(t, cfg, g, tt, 50).Stats.Cycles
	}
	withSpec, withoutSpec := run(true), run(false)
	if withSpec > withoutSpec {
		t.Errorf("perfect alias speculation slower (%d) than conservative (%d)", withSpec, withoutSpec)
	}
}

func TestLiveDBBLimitSerializesIterations(t *testing.T) {
	run := func(limit int) int64 {
		cfg := config.AcceleratorTileCore(limit)
		g, tt := traceKernel(t, indepSrc, setupTwoArrays(128))
		return runCore(t, cfg, g, tt, 10).Stats.Cycles
	}
	one, eight := run(1), run(8)
	if eight >= one {
		t.Errorf("8 live DBBs (%d cycles) should beat 1 (%d cycles): hardware loop unrolling", eight, one)
	}
}

func TestFunctionalUnitLimits(t *testing.T) {
	run := func(fpmul int) int64 {
		cfg := config.OutOfOrderCore()
		if fpmul > 0 {
			cfg.FunctionalUnits = map[string]int{"fp_mul": fpmul}
		}
		g, tt := traceKernel(t, indepSrc, setupTwoArrays(256))
		return runCore(t, cfg, g, tt, 2).Stats.Cycles
	}
	limited, unlimited := run(1), run(0)
	if unlimited > limited {
		t.Errorf("unlimited FUs (%d) slower than 1 fp_mul (%d)", unlimited, limited)
	}
	if limited == unlimited {
		t.Log("FU limit had no effect on this kernel (acceptable but unexpected)")
	}
}

const branchySrc = `
void kernel(long* A, long n) {
  long acc = 0;
  for (long i = 0; i < n; i++) {
    if (A[i] % 3 == 0) {
      acc += A[i];
    } else {
      acc -= 1;
    }
  }
  A[0] = acc;
}
`

func TestBranchSpeculationOrdering(t *testing.T) {
	run := func(bp config.BranchPredictor) (int64, int64) {
		cfg := config.OutOfOrderCore()
		cfg.Branch = bp
		g, tt := traceKernel(t, branchySrc, func(m *interp.Memory) []uint64 {
			vals := make([]int64, 200)
			for i := range vals {
				vals[i] = int64(i * 7)
			}
			return []uint64{m.AllocI64(vals), uint64(len(vals))}
		})
		c := runCore(t, cfg, g, tt, 10)
		return c.Stats.Cycles, c.Stats.Mispredict
	}
	perfect, _ := run(config.BranchPerfect)
	static, mispredicts := run(config.BranchStatic)
	none, _ := run(config.BranchNone)
	if perfect > static || static > none {
		t.Errorf("speculation ordering violated: perfect=%d static=%d none=%d", perfect, static, none)
	}
	if mispredicts == 0 {
		t.Error("static predictor reported no mispredictions on data-dependent branches")
	}
}

func TestSendRecvCounted(t *testing.T) {
	src := `
void kernel(long* A, long n) {
  for (long i = 0; i < n; i++) {
    send(0, A[i]);
    long v = recv_long(0);
    A[i] = v;
  }
}
`
	// Self-send/recv through the always-available fake fabric.
	g, tt := traceKernel(t, src, func(m *interp.Memory) []uint64 {
		return []uint64{m.AllocI64(make([]int64, 8)), 8}
	})
	c := runCore(t, config.OutOfOrderCore(), g, tt, 2)
	if c.Stats.Sends != 8 || c.Stats.Recvs != 8 {
		t.Errorf("sends=%d recvs=%d, want 8/8", c.Stats.Sends, c.Stats.Recvs)
	}
}

type stubAccel struct {
	cycles int64
	calls  int
}

func (a *stubAccel) Invoke(name string, params []int64, now int64) (int64, error) {
	a.calls++
	return now + a.cycles, nil
}

func TestAcceleratorInvocationBlocksCompletion(t *testing.T) {
	src := `
void kernel(long* A, long n) {
  acc_test(A, n);
  A[0] = 1;
}
`
	mod, err := cc.Compile(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Func("kernel")
	m := interp.NewMemory(1 << 20)
	pa := m.AllocI64(make([]int64, 4))
	res, err := interp.Run(f, m, []uint64{pa, 4}, interp.Options{
		Acc: map[string]interp.AccFunc{"acc_test": func(mem *interp.Memory, params []int64) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ddg.Build(f)
	acc := &stubAccel{cycles: 5000}
	c := New(0, config.OutOfOrderCore(), Lower(g), res.Trace.Tiles[0], &fakeMem{lat: 2}, &fakeFabric{}, acc)
	for now := int64(0); c.Step(now); now++ {
		if now > 1_000_000 {
			t.Fatal("never finished")
		}
	}
	if acc.calls != 1 {
		t.Errorf("accelerator invoked %d times, want 1", acc.calls)
	}
	if c.Stats.Cycles < 5000 {
		t.Errorf("cycles %d; accelerator latency (5000) must dominate", c.Stats.Cycles)
	}
	if c.Stats.AccCalls != 1 {
		t.Errorf("AccCalls = %d", c.Stats.AccCalls)
	}
}

// TestCorruptTracePanics: the address stream carries no instruction
// indices, so its length is what keeps it in step with the path. Check
// refuses one address missing or one inserted mid-stream, and a path that
// stops before its ret; a core replaying the short one panics where it runs
// out.
func TestCorruptTracePanics(t *testing.T) {
	g, tt := traceKernel(t, sumSrc, setupArray(8))
	p := Lower(g)
	if err := p.Check(tt, 1); err != nil {
		t.Fatalf("Check of the recorded trace: %v", err)
	}
	withAddrs := func(edit func([]uint64) []uint64) *trace.TileTrace {
		var deltas []uint64
		tt.Mem.Values(func(d uint64) bool { deltas = append(deltas, d); return true })
		bad := *tt
		bad.Mem = trace.Stream{}
		for _, d := range edit(deltas) {
			bad.Mem.Append(d)
		}
		return &bad
	}
	short := withAddrs(func(a []uint64) []uint64 { return a[1:] })
	long := withAddrs(func(a []uint64) []uint64 { return slices.Insert(a, 3, a[3]) })
	// The path without its final ret, the block's instructions and addresses
	// taken off the counts too: only the path's last block gives it away.
	var path []int
	for w := tt.BBPath.Walk(p.CFG); ; {
		b, ok := w.Next()
		if !ok {
			break
		}
		path = append(path, b)
	}
	last, mems := path[len(path)-1], 0
	for _, sn := range p.Nodes(last) {
		if sn.Kind == KindMem {
			mems++
		}
	}
	noRet := withAddrs(func(a []uint64) []uint64 { return a[:len(a)-mems] })
	noRet.BBPath, noRet.DynInstrs = trace.Path{}, tt.DynInstrs-int64(p.Blocks[last].N)
	for i, b := range path[:len(path)-1] {
		noRet.BBPath.Enter()
		if i == 0 {
			continue // the entry
		}
		if s := p.CFG[path[i-1]]; s[1] >= 0 { // a condbr's bit picks b
			noRet.BBPath.Branch(map[bool]uint{true: 1}[int32(b) != s[0]])
		}
	}
	for name, bad := range map[string]*trace.TileTrace{"one address missing": short, "one address inserted": long, "no final ret": noRet} {
		if err := p.Check(bad, 1); err == nil {
			t.Errorf("Check passed a trace with %s", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a memory trace one address short must panic")
		}
	}()
	runCore(t, config.OutOfOrderCore(), g, short, 2)
}

// TestCheckEndsOnACycleOfBrs: a path over a kernel whose brs loop can run
// as long as its counts claim without reading a bit; Check stops it at the
// first block the walk enters twice without a decision.
func TestCheckEndsOnACycleOfBrs(t *testing.T) {
	// entry: br %spin; spin: br %spin
	bld := ir.NewBuilder(ir.NewModule("m"))
	f := bld.NewFunc("kernel")
	spin := bld.Block("spin")
	bld.Br(spin)
	bld.SetBlock(f.Entry())
	bld.Br(spin)
	if err := bld.Finish(); err != nil {
		t.Fatal(err)
	}
	p := Lower(ddg.Build(f))
	v4 := []byte("MSTR\x04\x00\x01\x00")
	v4 = binary.AppendUvarint(v4, 1<<62) // instructions
	v4 = binary.AppendUvarint(v4, 1<<62) // blocks
	tr, err := trace.Read(bytes.NewReader(append(v4, 0, 0, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(tr.Tiles[0], 1); err == nil || !strings.Contains(err.Error(), "path loops through block 1 without a decision") {
		t.Errorf("Check = %v, want the loop named", err)
	}
}

func TestClockScaling(t *testing.T) {
	g, tt := traceKernel(t, sumSrc, setupArray(64))
	fast := runCore(t, config.OutOfOrderCore(), g, tt, 4)
	slow := New(0, config.OutOfOrderCore(), Lower(g), tt, &fakeMem{lat: 4}, &fakeFabric{}, nil)
	slow.SetClockScale(2, 1) // core at half the global clock
	for now := int64(0); slow.Step(now); now++ {
		if now > 50_000_000 {
			t.Fatal("scaled core never finished")
		}
	}
	if slow.Stats.Cycles <= fast.Stats.Cycles {
		t.Errorf("half-clock core (%d global cycles) should take longer than full-clock (%d)", slow.Stats.Cycles, fast.Stats.Cycles)
	}
}

func TestClassifyCoversAllOpcodes(t *testing.T) {
	cases := map[ir.Opcode]config.InstrClass{
		ir.OpAdd: config.ClassIntALU, ir.OpMul: config.ClassIntMul,
		ir.OpSDiv: config.ClassIntDiv, ir.OpFAdd: config.ClassFPALU,
		ir.OpFMul: config.ClassFPMul, ir.OpFDiv: config.ClassFPDiv,
		ir.OpLoad: config.ClassMem, ir.OpStore: config.ClassMem,
		ir.OpAtomicAdd: config.ClassMem, ir.OpBr: config.ClassBranch,
		ir.OpPhi: config.ClassCast, ir.OpGEP: config.ClassIntALU,
	}
	for op, want := range cases {
		if got := Classify(&ir.Instr{Op: op}); got != want {
			t.Errorf("Classify(%s) = %s, want %s", op, got, want)
		}
	}
	if got := Classify(&ir.Instr{Op: ir.OpCall, Callee: "sqrt"}); got != config.ClassFPDiv {
		t.Errorf("sqrt classified as %s", got)
	}
	if got := Classify(&ir.Instr{Op: ir.OpCall, Callee: "send"}); got != config.ClassSpecial {
		t.Errorf("send classified as %s", got)
	}
}

func TestDynamicBranchPredictor(t *testing.T) {
	// A loop with a strongly-biased data-dependent branch: gshare should
	// learn it and beat the static predictor, while never beating perfect.
	src := `
void kernel(long* A, long* out, long n) {
  long acc = 0;
  for (long i = 0; i < n; i++) {
    if (A[i] > 0) {   // biased: ~94% taken
      acc += A[i];
    } else {
      acc -= A[i];
    }
  }
  out[0] = acc;
}
`
	setup := func(m *interp.Memory) []uint64 {
		// Period-4 pattern: fits in the gshare history register, so the
		// dynamic predictor can learn it while the static one cannot.
		vals := make([]int64, 600)
		for i := range vals {
			vals[i] = 5
			if i%4 == 0 {
				vals[i] = -3
			}
		}
		return []uint64{m.AllocI64(vals), m.Alloc(8, 8), uint64(len(vals))}
	}
	run := func(bp config.BranchPredictor) (int64, int64) {
		cfg := config.OutOfOrderCore()
		cfg.Branch = bp
		cfg.MispredictPenalty = 12
		g, tt := traceKernel(t, src, setup)
		c := runCore(t, cfg, g, tt, 4)
		return c.Stats.Cycles, c.Stats.Mispredict
	}
	perfect, _ := run(config.BranchPerfect)
	dynamic, dynMiss := run(config.BranchDynamic)
	static, statMiss := run(config.BranchStatic)
	none, _ := run(config.BranchNone)
	if dynMiss == 0 {
		t.Error("gshare reported zero mispredictions on a data-dependent branch")
	}
	if dynMiss >= statMiss {
		t.Errorf("gshare mispredicts (%d) should be below static's (%d) on a biased branch", dynMiss, statMiss)
	}
	if !(perfect <= dynamic && dynamic <= static && static <= none) {
		t.Errorf("speculation ordering violated: perfect=%d dynamic=%d static=%d none=%d",
			perfect, dynamic, static, none)
	}
}

func TestGsharePredictsUnconditional(t *testing.T) {
	g, tt := traceKernel(t, sumSrc, setupArray(16))
	cfg := config.OutOfOrderCore()
	cfg.Branch = config.BranchDynamic
	c := runCore(t, cfg, g, tt, 2)
	// Unconditional branches never mispredict; only the loop back-edge
	// (condbr) can, and a monotone loop should train quickly.
	if c.Stats.Mispredict > 4 {
		t.Errorf("too many mispredicts on a simple loop: %d", c.Stats.Mispredict)
	}
}

// TestStepSteadyStateAllocs pins the zero-alloc contract of the simulation
// hot path: once the DBB and edge pools and the backing arrays are warm,
// stepping the core must not allocate at all. A regression here silently
// multiplies GC pressure by the dynamic instruction count.
func TestStepSteadyStateAllocs(t *testing.T) {
	g, tt := traceKernel(t, indepSrc, setupTwoArrays(4096))
	c := New(0, config.OutOfOrderCore(), Lower(g), tt, &fakeMem{lat: 8}, &fakeFabric{}, nil)
	now := int64(0)
	for i := 0; i < 2000; i++ {
		if !c.Step(now) {
			t.Fatal("core finished during warmup; grow the workload")
		}
		now++
	}
	// The measured window must cover the whole life of a dynamic node —
	// launch, issue, complete, retire, slot reuse — not just issue/complete.
	launched, retired, head := c.seqCounter, c.Stats.Instrs, c.headSeq
	avg := testing.AllocsPerRun(1000, func() {
		c.Step(now)
		now++
	})
	if avg != 0 {
		t.Errorf("core.Step allocates %.2f objects/cycle in steady state, want 0", avg)
	}
	if c.Done() {
		t.Fatal("core finished inside the measured window; grow the workload")
	}
	if dl, dr := c.seqCounter-launched, c.Stats.Instrs-retired; dl < 1000 || dr < 1000 {
		t.Errorf("measured window launched %d and completed %d instructions; it must exercise launch and retire", dl, dr)
	}
	if turned := c.headSeq - head; turned <= int64(len(c.nodes)) {
		t.Errorf("measured window retired %d instructions; it must reuse every one of the ring's %d slots", turned, len(c.nodes))
	}
}

// TestMAOStaysSmall: the MAO compacts at its live size, so over a whole run of
// thousands of memory accesses its backing slice stays within a small multiple
// of the LSQ. (Compacting only past 4,096 dead entries grew it past that on
// every tile.)
func TestMAOStaysSmall(t *testing.T) {
	g, tt := traceKernel(t, indepSrc, setupTwoArrays(8192))
	cfg := config.OutOfOrderCore()
	c := New(0, cfg, Lower(g), tt, &fakeMem{lat: 200}, &fakeFabric{}, nil)
	most := 0
	for now := int64(0); c.Step(now); now++ {
		most = max(most, cap(c.mao))
	}
	if ops := c.Stats.Loads + c.Stats.Stores; ops < 16*int64(cfg.LSQSize) {
		t.Fatalf("%d memory accesses; the run must outlast many MAO compactions", ops)
	}
	if most > 4*cfg.LSQSize {
		t.Errorf("cap(mao) reached %d, want <= 4 x LSQSize = %d", most, 4*cfg.LSQSize)
	}
}

// TestDynNodeSize pins the ring slot's footprint at one 64-byte host cache
// line: a core round-robins its window through the host's caches every cycle,
// so a field added here is paid on every launch, issue and completion of every
// tile. (The pooled node it replaced was 200 bytes; a per-slot completion
// closure made it 72.)
func TestDynNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(dynNode{}); size != 64 {
		t.Errorf("dynNode is %d bytes, want 64", size)
	}
}

// TestStaticNodeIs120Bytes pins the lowered record: an access's size and
// kind sit in bytes that would otherwise be padding, so the trace can leave
// them out at no cost here.
func TestStaticNodeIs120Bytes(t *testing.T) {
	if size := unsafe.Sizeof(StaticNode{}); size != 120 {
		t.Errorf("StaticNode is %d bytes, want 120", size)
	}
}

// TestCoreFillsItsSizeClass pins a core's record at 1,144 bytes: with the
// allocator's 8-byte header that is its 1,152-byte size class exactly, so a
// field added here costs every tile of every system 128 bytes more.
func TestCoreFillsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Core{}); size != 1144 {
		t.Errorf("Core is %d bytes, want 1144", size)
	}
}

// TestSetFreeInstrsAfterNew: fused-idiom bits set after construction are
// honoured — the core switches to a private copy of the shared program, so
// the free instructions stop costing issue slots while another core built on
// the same program is unaffected.
func TestSetFreeInstrsAfterNew(t *testing.T) {
	g, tt := traceKernel(t, indepSrc, setupTwoArrays(256))
	p := Lower(g)
	mask := make([]bool, g.Fn.NumInstrs())
	free := 0
	for _, in := range g.Fn.Instrs() {
		if in.Op == ir.OpGEP || in.Op == ir.OpCast || in.Op == ir.OpPhi {
			mask[in.Idx] = true
			free++
		}
	}
	if free == 0 {
		t.Fatal("kernel has no gep/cast/phi to fuse")
	}
	run := func(c *Core) Stats {
		for now := int64(0); c.Step(now); now++ {
			if now > 10_000_000 {
				t.Fatal("core never finished")
			}
		}
		return c.Stats
	}
	cfg := config.OutOfOrderCore()
	cfg.IssueWidth = 1 // issue-bound, so freed slots show up as cycles
	fused := New(0, cfg, p, tt, &fakeMem{lat: 2}, &fakeFabric{}, nil)
	fused.SetFreeInstrs(mask)
	plain := New(1, cfg, p, tt, &fakeMem{lat: 2}, &fakeFabric{}, nil)
	if &fused.prog.nodes[0] == &p.nodes[0] {
		t.Fatal("the fused core still aliases the shared program's records")
	}
	for i := range p.nodes {
		if p.nodes[i].Free {
			t.Fatalf("SetFreeInstrs on one core set the shared program's Free bit of instruction %d", i)
		}
		if fused.prog.nodes[i].Free != mask[i] {
			t.Fatalf("instruction %d: Free = %v, mask says %v", i, fused.prog.nodes[i].Free, mask[i])
		}
	}
	fs, ps := run(fused), run(plain)
	if fs.Instrs != ps.Instrs {
		t.Errorf("fused core retired %d instructions, plain core %d", fs.Instrs, ps.Instrs)
	}
	if fs.Cycles >= ps.Cycles {
		t.Errorf("fusing %d static idioms saved nothing: %d cycles vs %d", free, fs.Cycles, ps.Cycles)
	}
}

// TestParkingAStoreIsProgress: a store that parks behind an older access to
// its address has left the issue stage, so Progress moves even on a step of
// a width-1 in-order core that did nothing else — an unchanged reading would
// call the step frozen although it changed the core.
func TestParkingAStoreIsProgress(t *testing.T) {
	const src = `
void kernel(long* A, long* B) {
  long x = *A;
  *A = 5;
  B[0] = x;
}
`
	g, tt := traceKernel(t, src, func(m *interp.Memory) []uint64 {
		return []uint64{m.Alloc(64, 64), m.Alloc(64, 64)}
	})
	cfg := config.InOrderCore()
	c := New(0, cfg, Lower(g), tt, &fakeMem{lat: 100}, &fakeFabric{}, nil)
	parks := 0
	for now := int64(0); ; now++ {
		before, ready := c.Progress(), c.readyCount
		if !c.Step(now) {
			break
		}
		if c.readyCount > ready {
			parks++
			if c.Progress() == before {
				t.Fatalf("cycle %d parked a store, but Progress stayed at %d", now, before)
			}
		}
	}
	if parks == 0 {
		t.Fatal("no store parked: the kernel no longer exercises parking")
	}
}
