package interp

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mosaicsim/internal/ir"
	"mosaicsim/internal/trace"
)

const vecAddSrc = `
func @kernel(%A: ptr, %B: ptr, %C: ptr, %n: i64) {
entry:
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i.next, %loop]
  %pa = gep %A, %i, 8
  %a = load f64, %pa
  %pb = gep %B, %i, 8
  %b = load f64, %pb
  %sum = fadd %a, %b
  %pc = gep %C, %i, 8
  store %sum, %pc
  %i.next = add %i, 1
  %done = icmp eq %i.next, %n
  condbr %done, %exit, %loop
exit:
  ret
}
`

const atomicSrc = `
func @kernel(%ctr: ptr, %iters: i64) {
entry:
  br %head
head:
  %i = phi i64 [0, %entry], [%i.next, %head]
  %old = atomicadd %ctr, 1
  %i.next = add %i, 1
  %c = icmp lt %i.next, %iters
  condbr %c, %head, %exit
exit:
  ret
}
`

const pipelineSrc = `
func @kernel(%out: ptr, %n: i64) {
entry:
  %tid = call i64 tile_id()
  %isProd = icmp eq %tid, 0
  condbr %isProd, %prod.head, %cons.head
prod.head:
  %i = phi i64 [0, %entry], [%i.next, %prod.head]
  %sq = mul %i, %i
  call void send(1, %sq)
  %i.next = add %i, 1
  %pc = icmp lt %i.next, %n
  condbr %pc, %prod.head, %exit
cons.head:
  %j = phi i64 [0, %entry], [%j.next, %cons.head]
  %acc = phi i64 [0, %entry], [%acc.next, %cons.head]
  %v = call i64 recv(0)
  %acc.next = add %acc, %v
  %j.next = add %j, 1
  %cc = icmp lt %j.next, %n
  condbr %cc, %cons.head, %cons.done
cons.done:
  store %acc.next, %out
  br %exit
exit:
  ret
}
`

const barrierSrc = `
func @kernel(%flag: ptr, %out: ptr) {
entry:
  %tid = call i64 tile_id()
  %isz = icmp eq %tid, 0
  condbr %isz, %setter, %join
setter:
  store i64 99, %flag
  br %join
join:
  call void barrier()
  %v = load i64, %flag
  %p = gep %out, %tid, 8
  store %v, %p
  ret
}
`

func runVecAdd(t *testing.T, n int) (*Memory, *Result, uint64) {
	t.Helper()
	m := ir.MustParse(vecAddSrc)
	f := m.Func("kernel")
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
	f := ir.MustParse(vecAddSrc).Func("kernel")
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
	m := ir.MustParse(vecAddSrc)
	f := m.Func("kernel")
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
	src := `
func @kernel(%A: ptr, %n: i64) {
entry:
  %tid = call i64 tile_id()
  %nt = call i64 num_tiles()
  br %head
head:
  %i = phi i64 [%tid, %entry], [%i.next, %body]
  %in = icmp lt %i, %n
  condbr %in, %body, %exit
body:
  %p = gep %A, %i, 8
  store %tid, %p
  %i.next = add %i, %nt
  br %head
exit:
  ret
}
`
	m := ir.MustParse(src)
	f := m.Func("kernel")
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
	m := ir.MustParse(atomicSrc)
	mem := NewMemory(1 << 20)
	ctr := mem.Alloc(8, 8)
	const tiles, iters = 4, 100
	res, err := Run(m.Func("kernel"), mem, []uint64{ctr, iters}, Options{NumTiles: tiles})
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadI64(ctr); got != tiles*iters {
		t.Errorf("counter = %d, want %d", got, tiles*iters)
	}
	for _, tt := range res.Trace.Tiles {
		atomics := 0
		for _, ev := range accesses(m.Func("kernel"), tt) {
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
	m := ir.MustParse(pipelineSrc)
	mem := NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	const n = 1000
	if _, err := Run(m.Func("kernel"), mem, []uint64{out, n}, Options{NumTiles: 2, Timeslice: 7}); err != nil {
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
	src := `
func @kernel() {
entry:
  %v = call i64 recv(0)
  ret
}
`
	m := ir.MustParse(src)
	_, err := Run(m.Func("kernel"), NewMemory(0), nil, Options{NumTiles: 1})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestMathIntrinsics(t *testing.T) {
	src := `
func @kernel(%out: ptr, %x: f64, %y: f64) {
entry:
  %s = call f64 sqrt(%x)
  %e = call f64 exp(%y)
  %mx = call f64 fmax(%s, %e)
  %p = call f64 pow(%x, 2.0)
  %t0 = gep %out, 0, 8
  store %s, %t0
  %t1 = gep %out, 1, 8
  store %e, %t1
  %t2 = gep %out, 2, 8
  store %mx, %t2
  %t3 = gep %out, 3, 8
  store %p, %t3
  ret
}
`
	m := ir.MustParse(src)
	mem := NewMemory(1 << 20)
	out := mem.Alloc(32, 8)
	x, y := 9.0, 1.5
	if _, err := Run(m.Func("kernel"), mem, []uint64{out, ArgF64(x), ArgF64(y)}, Options{}); err != nil {
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
	src := `
func @kernel(%A: ptr, %n: i64) {
entry:
  call void acc_double(%A, %n)
  ret
}
`
	m := ir.MustParse(src)
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
	res, err := Run(m.Func("kernel"), mem, []uint64{pa, 3}, opts)
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
	src := "func @kernel() {\nentry:\n  call void acc_missing()\n  ret\n}\n"
	m := ir.MustParse(src)
	_, err := Run(m.Func("kernel"), NewMemory(0), nil, Options{})
	if err == nil || !strings.Contains(err.Error(), "acc_missing") {
		t.Errorf("want unknown-accelerator error, got %v", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	src := "func @kernel(%a: i64, %b: i64) {\nentry:\n  %q = sdiv %a, %b\n  ret\n}\n"
	m := ir.MustParse(src)
	_, err := Run(m.Func("kernel"), NewMemory(0), []uint64{4, 0}, Options{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("want division-by-zero error, got %v", err)
	}
}

func TestIntegerWidthSemantics(t *testing.T) {
	src := `
func @kernel(%out: ptr) {
entry:
  %big = add i32 2147483647, 1
  %w = cast sext i64, %big
  store %w, %out
  %sh = ashr i32 -8, 1
  %sh64 = cast sext i64, %sh
  %p1 = gep %out, 1, 8
  store %sh64, %p1
  ret
}
`
	m := ir.MustParse(src)
	mem := NewMemory(1 << 20)
	out := mem.Alloc(16, 8)
	if _, err := Run(m.Func("kernel"), mem, []uint64{out}, Options{}); err != nil {
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
	src := `
module g
global @tbl i64 8

func @kernel(%out: ptr) {
entry:
  %p = gep @tbl, 3, 8
  store i64 77, %p
  %v = load i64, %p
  store %v, %out
  ret
}
`
	m := ir.MustParse(src)
	mem := NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	if _, err := Run(m.Func("kernel"), mem, []uint64{out}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadI64(out); got != 77 {
		t.Errorf("global round trip = %d, want 77", got)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	src := "func @kernel() {\nentry:\n  br %entry\n}\n"
	// A single self-loop block: valid IR, infinite dynamically.
	m, err := ir.Parse(src)
	if err != nil {
		t.Skipf("self-loop rejected by verifier: %v", err)
	}
	_, err = Run(m.Func("kernel"), NewMemory(0), nil, Options{MaxSteps: 10000})
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
	m := ir.MustParse(barrierSrc)
	mem := NewMemory(1 << 20)
	flag := mem.Alloc(8, 8)
	out := mem.Alloc(8*8, 8)
	const tiles = 6
	// Tiny timeslice forces many context switches across the barrier.
	if _, err := Run(m.Func("kernel"), mem, []uint64{flag, out}, Options{NumTiles: tiles, Timeslice: 2}); err != nil {
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
	src := `
func @kernel() {
entry:
  %tid = call i64 tile_id()
  %isz = icmp eq %tid, 0
  condbr %isz, %waiter, %exit
waiter:
  call void barrier()
  br %exit
exit:
  ret
}
`
	m := ir.MustParse(src)
	_, err := Run(m.Func("kernel"), NewMemory(0), nil, Options{NumTiles: 2})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestProfileCounts(t *testing.T) {
	m := ir.MustParse(vecAddSrc)
	f := m.Func("kernel")
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
