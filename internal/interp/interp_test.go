package interp

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mosaicsim/internal/cc"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/trace"
)

// vecAdd builds C[i] = A[i] + B[i] as one self-looping block, the shape of
// paper Fig. 3: entry, loop (a condbr per iteration), exit.
func vecAdd() *ir.Function {
	A, B, C, n := ir.NewParam("A", ir.Ptr), ir.NewParam("B", ir.Ptr), ir.NewParam("C", ir.Ptr), ir.NewParam("n", ir.I64)
	return build(func(b *ir.Builder, _ []ir.Value) {
		entry := b.Cur
		loop, exit := b.Block("loop"), b.Block("exit")
		b.Ret(nil)
		b.SetBlock(entry)
		b.Br(loop)
		b.SetBlock(loop)
		i := b.Phi(ir.I64)
		sum := b.FAdd(b.Load(ir.F64, b.GEP(A, i, 8)), b.Load(ir.F64, b.GEP(B, i, 8)))
		b.Store(sum, b.GEP(C, i, 8))
		next := b.Add(i, ir.ConstInt(ir.I64, 1))
		b.CondBr(b.ICmp(ir.PredEQ, next, n), exit, loop)
		ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
		ir.AddIncoming(i, next, loop)
	}, A, B, C, n)
}

// build returns @kernel over params, its blocks what body emits from the
// entry block on (args are the params as values); a current block left
// without a terminator ends in ret.
func build(body func(b *ir.Builder, args []ir.Value), params ...*ir.Param) *ir.Function {
	b := ir.NewBuilder(ir.NewModule("m"))
	f := b.NewFunc("kernel", params...)
	args := make([]ir.Value, len(params))
	for i, p := range params {
		args[i] = p
	}
	body(b, args)
	if b.Cur.Terminator() == nil {
		b.Ret(nil)
	}
	if err := b.Finish(); err != nil {
		panic(err)
	}
	return f
}

// kernel compiles mini-C src and returns its @kernel.
func kernel(src string) *ir.Function { return cc.MustCompile(src, "interp").Func("kernel") }

const atomicSrc = `
void kernel(long* ctr, long iters) {
  for (long i = 0; i < iters; i++) {
    atomic_add(ctr, 1);
  }
}
`

const pipelineSrc = `
void kernel(long* out, long n) {
  if (tile_id() == 0) {
    for (long i = 0; i < n; i++) {
      send(1, i * i);
    }
  } else {
    long acc = 0;
    for (long j = 0; j < n; j++) {
      acc += recv_long(0);
    }
    out[0] = acc;
  }
}
`

const barrierSrc = `
void kernel(long* flag, long* out) {
  long tid = tile_id();
  if (tid == 0) {
    flag[0] = 99;
  }
  barrier();
  out[tid] = flag[0];
}
`

func runVecAdd(t *testing.T, n int) (*Memory, *Result, uint64) {
	t.Helper()
	f := vecAdd()
	mem := NewMemory(1 << 20)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(2 * i)
	}
	pa := mem.AllocF64(a)
	pb := mem.AllocF64(b)
	pc := mem.Alloc(int64(n)*8, 64)
	res, err := Run(f, mem, []uint64{ArgPtr(pa), ArgPtr(pb), ArgPtr(pc), ArgI64(int64(n))}, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return mem, res, pc
}

func TestVecAddComputesCorrectValues(t *testing.T) {
	mem, _, pc := runVecAdd(t, 16)
	for i := 0; i < 16; i++ {
		want := float64(i) + float64(2*i)
		if got := mem.ReadF64(pc + uint64(i)*8); got != want {
			t.Errorf("C[%d] = %g, want %g", i, got, want)
		}
	}
}

// events returns a trace stream's elements as a slice.
// blocks returns tt's path walked over f's CFG.
func blocks(f *ir.Function, tt *trace.TileTrace) (out []int) {
	cfg := make(trace.CFG, len(f.Blocks))
	for i, b := range f.Blocks {
		cfg[i] = [2]int32{-1, -1}
		for j, s := range b.Succs() {
			cfg[i][j] = int32(s.ID)
		}
	}
	for w := tt.BBPath.Walk(cfg); ; {
		b, ok := w.Next()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

// access is one traced address beside the instruction that made it: the
// trace leaves which one to the kernel.
type access struct {
	in   *ir.Instr
	addr uint64
}

// accesses pairs tt's addresses with f's memory instructions along the block
// path, the way the timing core does: each is a delta from the address its
// instruction accessed last.
func accesses(f *ir.Function, tt *trace.TileTrace) (out []access) {
	addrs, last := tt.Mem.Cursor(), make([]uint64, f.NumInstrs())
	for _, b := range blocks(f, tt) {
		for _, in := range f.Blocks[b].Instrs {
			if in.IsMemory() {
				addr, _ := addrs.NextAddr(&last[in.Idx])
				out = append(out, access{in, addr})
			}
		}
	}
	return out
}

func TestVecAddTraceShape(t *testing.T) {
	_, res, _ := runVecAdd(t, 4)
	tt := res.Trace.Tiles[0]
	// Paper Fig. 3: BB path is entry, 4x loop, exit.
	want := []int{0, 1, 1, 1, 1, 2}
	f := vecAdd()
	if path := blocks(f, tt); !slices.Equal(path, want) || tt.BBPath.Len() != 6 || tt.BBPath.Bits() != 4 {
		t.Fatalf("BBPath = %v (%d blocks, %d bits), want %v: a bit per condbr", path, tt.BBPath.Len(), tt.BBPath.Bits(), want)
	}
	// 2 loads + 1 store per iteration.
	if n := tt.Mem.Len(); n != 12 {
		t.Errorf("mem events = %d, want 12", n)
	}
	mem := accesses(f, tt)
	loads, stores := 0, 0
	for _, ev := range mem {
		switch ev.in.Op {
		case ir.OpLoad:
			loads++
		case ir.OpStore:
			stores++
		}
		if size := ev.in.AccessType().Size(); size != 8 {
			t.Errorf("access size = %d, want 8", size)
		}
	}
	if loads != 8 || stores != 4 {
		t.Errorf("loads=%d stores=%d, want 8/4", loads, stores)
	}
	// Addresses of the store stream must be consecutive doubles.
	var prev uint64
	first := true
	for _, ev := range mem {
		if ev.in.Op != ir.OpStore {
			continue
		}
		if !first && ev.addr != prev+8 {
			t.Errorf("store stream not sequential: %d after %d", ev.addr, prev)
		}
		prev = ev.addr
		first = false
	}
	if tt.DynInstrs == 0 {
		t.Error("DynInstrs not counted")
	}
}

// TestVecAddProperty cross-checks interpreted results against Go arithmetic
// for random inputs and lengths.
func TestVecAddProperty(t *testing.T) {
	f := vecAdd()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		mem := NewMemory(1 << 20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		pa, pb := mem.AllocF64(a), mem.AllocF64(b)
		pc := mem.Alloc(int64(n)*8, 64)
		if _, err := Run(f, mem, []uint64{pa, pb, pc, uint64(n)}, Options{}); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if mem.ReadF64(pc+uint64(i)*8) != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSPMDTilePartitioning(t *testing.T) {
	// Each tile writes its tile ID over its strided partition of A.
	f := kernel(`
void kernel(long* A, long n) {
  long tid = tile_id();
  long nt = num_tiles();
  for (long i = tid; i < n; i += nt) {
    A[i] = tid;
  }
}
`)
	mem := NewMemory(1 << 20)
	const n, tiles = 64, 4
	pa := mem.Alloc(n*8, 64)
	res, err := Run(f, mem, []uint64{pa, n}, Options{NumTiles: tiles})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Trace.Tiles) != tiles {
		t.Fatalf("tiles = %d", len(res.Trace.Tiles))
	}
	for i := 0; i < n; i++ {
		if got := mem.ReadI64(pa + uint64(i)*8); got != int64(i%tiles) {
			t.Errorf("A[%d] = %d, want %d", i, got, i%tiles)
		}
	}
	// Every tile must have its own control-flow path with n/tiles iterations.
	// cc lays the loop out as head, body, latch: the body is block 2.
	for _, tt := range res.Trace.Tiles {
		bodies := 0
		for _, bb := range blocks(f, tt) {
			if bb == 2 {
				bodies++
			}
		}
		if bodies != n/tiles {
			t.Errorf("tile %d executed %d bodies, want %d", tt.Tile, bodies, n/tiles)
		}
	}
}

func TestAtomicAdd(t *testing.T) {
	f := kernel(atomicSrc)
	mem := NewMemory(1 << 20)
	ctr := mem.Alloc(8, 8)
	const tiles, iters = 4, 100
	res, err := Run(f, mem, []uint64{ctr, iters}, Options{NumTiles: tiles})
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadI64(ctr); got != tiles*iters {
		t.Errorf("counter = %d, want %d", got, tiles*iters)
	}
	for _, tt := range res.Trace.Tiles {
		atomics := 0
		for _, ev := range accesses(f, tt) {
			if ev.in.Op == ir.OpAtomicAdd {
				atomics++
			}
		}
		if atomics != iters {
			t.Errorf("tile %d atomics = %d, want %d", tt.Tile, atomics, iters)
		}
	}
}

func TestSendRecvPipeline(t *testing.T) {
	// Tile 0 produces squares, tile 1 consumes and accumulates: the shape of
	// a decoupled access/execute pair (§VII-A).
	mem := NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	const n = 1000
	if _, err := Run(kernel(pipelineSrc), mem, []uint64{out, n}, Options{NumTiles: 2, Timeslice: 7}); err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := int64(0); i < n; i++ {
		want += i * i
	}
	if got := mem.ReadI64(out); got != want {
		t.Errorf("sum of squares = %d, want %d", got, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	f := kernel("void kernel() { long v = recv_long(0); }")
	_, err := Run(f, NewMemory(0), nil, Options{NumTiles: 1})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestMathIntrinsics(t *testing.T) {
	f := kernel(`
void kernel(double* out, double x, double y) {
  double s = sqrt(x);
  double e = exp(y);
  out[0] = s;
  out[1] = e;
  out[2] = fmax(s, e);
  out[3] = pow(x, 2.0);
}
`)
	mem := NewMemory(1 << 20)
	out := mem.Alloc(32, 8)
	x, y := 9.0, 1.5
	if _, err := Run(f, mem, []uint64{out, ArgF64(x), ArgF64(y)}, Options{}); err != nil {
		t.Fatal(err)
	}
	checks := []float64{math.Sqrt(x), math.Exp(y), math.Max(math.Sqrt(x), math.Exp(y)), math.Pow(x, 2)}
	for i, want := range checks {
		if got := mem.ReadF64(out + uint64(i)*8); got != want {
			t.Errorf("slot %d = %g, want %g", i, got, want)
		}
	}
}

func TestAcceleratorCallRecordedAndExecuted(t *testing.T) {
	f := kernel("void kernel(double* A, long n) { acc_double(A, n); }")
	mem := NewMemory(1 << 20)
	pa := mem.AllocF64([]float64{1, 2, 3})
	opts := Options{Acc: map[string]AccFunc{
		"acc_double": func(mem *Memory, params []int64) {
			base := uint64(params[0])
			for i := int64(0); i < params[1]; i++ {
				addr := base + uint64(i)*8
				mem.WriteF64(addr, 2*mem.ReadF64(addr))
			}
		},
	}}
	res, err := Run(f, mem, []uint64{pa, 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{2, 4, 6} {
		if got := mem.ReadF64(pa + uint64(i)*8); got != want {
			t.Errorf("A[%d] = %g, want %g", i, got, want)
		}
	}
	acc := res.Trace.Tiles[0].Acc
	if len(acc) != 1 || acc[0].Name != "acc_double" || acc[0].Params[1] != 3 {
		t.Errorf("acc trace = %+v", acc)
	}
}

func TestUnknownAcceleratorErrors(t *testing.T) {
	_, err := Run(kernel("void kernel() { acc_missing(); }"), NewMemory(0), nil, Options{})
	if err == nil || !strings.Contains(err.Error(), "acc_missing") {
		t.Errorf("want unknown-accelerator error, got %v", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	f := kernel("void kernel(long a, long b) { long q = a / b; }")
	_, err := Run(f, NewMemory(0), []uint64{4, 0}, Options{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("want division-by-zero error, got %v", err)
	}
}

func TestIntegerWidthSemantics(t *testing.T) {
	f := kernel(`
void kernel(long* out) {
  int big = 2147483647;
  big = big + 1;
  out[0] = (long)big;
  int m = -8;
  out[1] = (long)(m >> 1);
}
`)
	mem := NewMemory(1 << 20)
	out := mem.Alloc(16, 8)
	if _, err := Run(f, mem, []uint64{out}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadI64(out); got != math.MinInt32 {
		t.Errorf("i32 overflow wrap = %d, want %d", got, math.MinInt32)
	}
	if got := mem.ReadI64(out + 8); got != -4 {
		t.Errorf("ashr -8 >> 1 = %d, want -4", got)
	}
}

func TestGlobalsPlacedAndUsable(t *testing.T) {
	f := kernel(`
global long tbl[8];
void kernel(long* out) {
  tbl[3] = 77;
  out[0] = tbl[3];
}
`)
	mem := NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	if _, err := Run(f, mem, []uint64{out}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadI64(out); got != 77 {
		t.Errorf("global round trip = %d, want 77", got)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	// A loop that never exits: valid IR, infinite dynamically.
	_, err := Run(kernel("void kernel() { while (1) { } }"), NewMemory(0), nil, Options{MaxSteps: 10000})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("want step-limit error, got %v", err)
	}
}

func TestMemoryBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds access")
		}
	}()
	mem := NewMemory(8192)
	mem.ReadF64(0) // null page
}

func TestMemoryAllocAlignment(t *testing.T) {
	mem := NewMemory(1 << 16)
	a := mem.Alloc(10, 64)
	if a%64 != 0 {
		t.Errorf("alloc not 64-aligned: %d", a)
	}
	b := mem.Alloc(8, 8)
	if b < a+10 {
		t.Errorf("allocations overlap: %d after %d+10", b, a)
	}
}

func TestBarrierSynchronizesTiles(t *testing.T) {
	// Tile 0 writes a flag before the barrier; every tile must observe it
	// after the barrier regardless of scheduling.
	mem := NewMemory(1 << 20)
	flag := mem.Alloc(8, 8)
	out := mem.Alloc(8*8, 8)
	const tiles = 6
	// Tiny timeslice forces many context switches across the barrier.
	if _, err := Run(kernel(barrierSrc), mem, []uint64{flag, out}, Options{NumTiles: tiles, Timeslice: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tiles; i++ {
		if got := mem.ReadI64(out + uint64(i)*8); got != 99 {
			t.Errorf("tile %d observed %d before barrier release, want 99", i, got)
		}
	}
}

func TestMismatchedBarriersDeadlock(t *testing.T) {
	// Tile 0 hits a barrier no one else reaches: the runner must detect the
	// deadlock rather than hang.
	f := kernel(`
void kernel() {
  if (tile_id() == 0) {
    barrier();
  }
}
`)
	_, err := Run(f, NewMemory(0), nil, Options{NumTiles: 2})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestProfileCounts(t *testing.T) {
	f := vecAdd()
	mem := NewMemory(1 << 20)
	const n = 10
	pa := mem.AllocF64(make([]float64, n))
	pb := mem.AllocF64(make([]float64, n))
	pc := mem.Alloc(n*8, 64)
	res, err := Run(f, mem, []uint64{pa, pb, pc, n}, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) != 1 {
		t.Fatalf("counts for %d tiles", len(res.Counts))
	}
	counts := res.Counts[0]
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != res.Trace.Tiles[0].DynInstrs {
		t.Errorf("profile total %d != dynamic instructions %d", total, res.Trace.Tiles[0].DynInstrs)
	}
	// Every loop-body instruction executed exactly n times; entry br once.
	loop := f.BlockByName("loop")
	for _, in := range loop.Instrs {
		if counts[in.Idx] != n {
			t.Errorf("loop instr %d executed %d times, want %d", in.Idx, counts[in.Idx], n)
		}
	}
	if entryBr := f.Entry().Instrs[0]; counts[entryBr.Idx] != 1 {
		t.Errorf("entry br executed %d times, want 1", counts[entryBr.Idx])
	}
	// No profile unless requested.
	res2, err := Run(f, NewMemory(1<<20), []uint64{pa, pb, pc, n}, Options{})
	if err == nil && res2.Counts != nil {
		t.Error("profile collected without Options.Profile")
	}
}
