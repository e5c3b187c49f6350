package interp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mosaicsim/internal/ir"
	"mosaicsim/internal/trace"
)

// TestErrorPaths names every way a run can fail, after lowering: each is
// still reported when — and only when — the offending instruction executes,
// with the message the tree-walking interpreter gave.
func TestErrorPaths(t *testing.T) {
	i64 := func(v int64) ir.Value { return ir.ConstInt(ir.I64, v) }
	named := func(in *ir.Instr, name string) { in.Ident = name }
	deadPhi := build(func(b *ir.Builder, _ []ir.Value) {
		entry := b.Cur
		next := b.Block("b")
		b.SetBlock(entry)
		b.Br(next)
		b.SetBlock(next)
		x := b.Phi(ir.I64)
		named(x, "x")
		ir.AddIncoming(x, i64(1), entry)
	})
	deadPhi.Blocks[1].Instrs[0].Incoming[0] = deadPhi.Blocks[1] // no value for entry->b
	badCast := build(func(b *ir.Builder, a []ir.Value) { named(b.CastTo(ir.CastTrunc, ir.I32, a[0]), "c") }, ir.NewParam("a", ir.I64))
	badCast.Blocks[0].Instrs[0].Cast = ir.CastNone
	badOp := build(func(b *ir.Builder, a []ir.Value) { named(b.Add(a[0], i64(1)), "c") }, ir.NewParam("a", ir.I64))
	badOp.Blocks[0].Instrs[0].Op = ir.OpInvalid
	// pab is @kernel(%p: ptr, %a: i64, %b: i64) running body before its ret.
	pab := func(body func(b *ir.Builder, p, a, bv ir.Value)) *ir.Function {
		return build(func(b *ir.Builder, v []ir.Value) { body(b, v[0], v[1], v[2]) },
			ir.NewParam("p", ir.Ptr), ir.NewParam("a", ir.I64), ir.NewParam("b", ir.I64))
	}
	call := func(callee string, ty ir.Type, args ...ir.Value) *ir.Function {
		return pab(func(b *ir.Builder, _, _, _ ir.Value) { b.Call(callee, ty, args...) })
	}
	i32div := build(func(b *ir.Builder, v []ir.Value) { b.Bin(ir.OpSDiv, v[0], v[1]) }, ir.NewParam("a", ir.I32), ir.NewParam("b", ir.I32))
	for _, tc := range []struct {
		name  string
		fn    *ir.Function
		args  []uint64
		opts  Options
		want  string
		panic bool // Memory.check faults by panicking, as it does for harness accesses
	}{
		{name: "division by zero", fn: pab(func(b *ir.Builder, _, a, bv ir.Value) { named(b.Bin(ir.OpSDiv, a, bv), "q") }), args: []uint64{0, 4, 0}, want: "interp: division by zero in %q"},
		{name: "remainder by zero", fn: pab(func(b *ir.Builder, _, a, bv ir.Value) { named(b.Bin(ir.OpSRem, a, bv), "q") }), args: []uint64{0, 4, 0}, want: "interp: remainder by zero in %q"},
		{name: "i32 divisor with only high bits set", fn: i32div, args: []uint64{7, 1 << 32}, want: "division by zero"},
		{name: "null-page load", fn: pab(func(b *ir.Builder, p, _, _ ir.Value) { b.Load(ir.I64, p) }), args: []uint64{8, 0, 0}, want: "out of bounds: addr=0x8 size=8", panic: true},
		{name: "store past the image", fn: pab(func(b *ir.Builder, p, _, bv ir.Value) { b.Store(bv, p) }), args: []uint64{8190, 0, 0}, want: "out of bounds: addr=0x1ffe size=8", panic: true},
		{name: "atomic past the image", fn: pab(func(b *ir.Builder, p, _, _ ir.Value) { b.AtomicAdd(p, i64(1)) }), args: []uint64{1 << 40, 0, 0}, want: "out of bounds", panic: true},
		{name: "send to an invalid tile", fn: pab(func(b *ir.Builder, _, a, bv ir.Value) { b.Call("send", ir.Void, a, bv) }), args: []uint64{0, 5, 0}, opts: Options{NumTiles: 2}, want: "interp: send to invalid tile 5"},
		{name: "send to a negative tile", fn: call("send", ir.Void, i64(-1), i64(0)), args: []uint64{0, 0, 0}, want: "interp: send to invalid tile -1"},
		{name: "unknown intrinsic", fn: call("frobnicate", ir.Void, i64(0)), args: []uint64{0, 0, 0}, want: `interp: unknown intrinsic "frobnicate"`},
		{name: "unregistered accelerator", fn: call("acc_missing", ir.Void, i64(0)), args: []uint64{0, 0, 0}, want: `no functional implementation registered for accelerator "acc_missing"`},
		{name: "recv deadlock", fn: call("recv", ir.I64, i64(1)), args: []uint64{0, 0, 0}, opts: Options{NumTiles: 2}, want: "deadlock"},
		{name: "recv from no tile", fn: call("recv", ir.I64, i64(-3)), args: []uint64{0, 0, 0}, want: "deadlock"},
		{name: "MaxSteps", fn: build(func(b *ir.Builder, _ []ir.Value) { b.Br(b.Cur) }), opts: Options{MaxSteps: 10000}, want: "interp: kernel @kernel exceeded 10000 dynamic instructions"},
		{name: "wrong argument count", fn: pab(func(*ir.Builder, ir.Value, ir.Value, ir.Value) {}), args: []uint64{1}, want: "interp: kernel @kernel takes 3 args, got 1"},
		{name: "phi without an incoming edge", fn: deadPhi, want: "interp: phi %x has no incoming edge from entry"},
		{name: "bad cast kind", fn: badCast, args: []uint64{1}, want: "interp: bad cast kind in %c"},
		{name: "unhandled opcode", fn: badOp, args: []uint64{1}, want: "interp: unhandled opcode invalid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); tc.panic && (r == nil || !strings.Contains(fmt.Sprint(r), tc.want)) {
					t.Errorf("panic %v, want one that says %q", r, tc.want)
				} else if !tc.panic && r != nil {
					panic(r)
				}
			}()
			_, err := Run(tc.fn, NewMemory(8192), tc.args, tc.opts)
			if tc.panic {
				t.Fatalf("Run returned (%v), want a memory fault", err)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run error %v, want one that says %q", err, tc.want)
			}
		})
	}
}

// TestDeadCodeNeverFails: what cannot execute is lowered to an instruction
// that reports itself only when reached, so it is harmless on a path the run
// never takes — as it was when calls were resolved at execution time.
func TestDeadCodeNeverFails(t *testing.T) {
	f := build(func(b *ir.Builder, out []ir.Value) {
		entry := b.Cur
		dead, live := b.Block("dead"), b.Block("live")
		b.Store(ir.ConstInt(ir.I64, 7), out[0])
		b.SetBlock(entry)
		b.CondBr(b.ICmp(ir.PredEQ, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 1)), dead, live)
		b.SetBlock(dead)
		b.Call("frobnicate", ir.Void)
		b.Call("acc_missing", ir.Void)
		b.Bin(ir.OpSDiv, ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 0))
		b.Br(live)
		b.SetBlock(live)
	}, ir.NewParam("out", ir.Ptr))
	mem := NewMemory(1 << 16)
	out := mem.Alloc(8, 8)
	if _, err := Run(f, mem, []uint64{out}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadI64(out); got != 7 {
		t.Errorf("out = %d, want 7", got)
	}
}

// TestParallelPhiCopy: phis of one block read their inputs before any of them
// is written, including when an edge's copies form a cycle.
func TestParallelPhiCopy(t *testing.T) {
	f := build(func(b *ir.Builder, v []ir.Value) {
		out, n := v[0], v[1]
		entry := b.Cur
		loop, exit := b.Block("loop"), b.Block("exit")
		b.SetBlock(entry)
		b.Br(loop)
		b.SetBlock(loop)
		pa, pb, i := b.Phi(ir.I64), b.Phi(ir.I64), b.Phi(ir.I64)
		next := b.Add(i, ir.ConstInt(ir.I64, 1))
		b.CondBr(b.ICmp(ir.PredEQ, next, n), exit, loop)
		ir.AddIncoming(pa, ir.ConstInt(ir.I64, 1), entry)
		ir.AddIncoming(pa, pb, loop)
		ir.AddIncoming(pb, ir.ConstInt(ir.I64, 2), entry)
		ir.AddIncoming(pb, pa, loop)
		ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
		ir.AddIncoming(i, next, loop)
		b.SetBlock(exit)
		b.Store(pa, out)
		b.Store(pb, b.GEP(out, ir.ConstInt(ir.I64, 1), 8))
	}, ir.NewParam("out", ir.Ptr), ir.NewParam("n", ir.I64))
	mem := NewMemory(1 << 16)
	out := mem.Alloc(16, 8)
	res, err := Run(f, mem, []uint64{out, 4}, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	// Three swaps after the entry edge: a=2, b=1.
	if a, b := mem.ReadI64(out), mem.ReadI64(out+8); a != 2 || b != 1 {
		t.Errorf("a, b = %d, %d after three swaps; want 2, 1", a, b)
	}
	// 1 br + 4 x (3 phis + add, icmp, condbr) + 2 stores, gep, ret.
	if got := res.Trace.Tiles[0].DynInstrs; got != 1+4*6+4 {
		t.Errorf("DynInstrs = %d, want 29", got)
	}
	for _, in := range f.BlockByName("loop").Instrs {
		if res.Counts[0][in.Idx] != 4 {
			t.Errorf("%%%s counted %d times, want 4", in.Ident, res.Counts[0][in.Idx])
		}
	}
}

// chunksFor bounds how many chunks a trace stream fills with n bytes: the
// first holds 256, each later one twice the last up to 64 Ki, less the at
// most 9 bytes a chunk leaves unused.
func chunksFor(n int) int {
	chunks := 0
	for size := 256; n > 0; size = min(2*size, 64<<10) {
		n -= size - 9
		chunks++
	}
	return chunks
}

// TestTraceAllocation guards the recorder: a unit-stride loop records a bit
// per iteration and a byte per address, tracing ten times as many iterations
// may cost only the extra chunks (and what lists them), not an allocation per
// block entry, and a run allocates at most 1.25x its trace — the chunks are
// the trace, so that is their unfilled rest and the run's fixed costs.
func TestTraceAllocation(t *testing.T) {
	f := vecAdd()
	const short, long = 10_000, 100_000
	mem := NewMemory(1 << 22)
	defer mem.Release()
	pa, pb := mem.AllocF64(make([]float64, long)), mem.AllocF64(make([]float64, long))
	pc := mem.Alloc(long*8, 64)
	run := func(n int) *Result {
		res, err := Run(f, mem, []uint64{pa, pb, pc, uint64(n)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tt := run(long).Trace.Tiles[0]
	runtime.ReadMemStats(&after)
	// A stream's bytes, and a few of header, as a tile holding it alone encodes.
	size := func(tt trace.TileTrace) int {
		n, _ := (&trace.Trace{Tiles: []*trace.TileTrace{&tt}}).EncodedSize()
		return int(n)
	}
	path, addrs := size(trace.TileTrace{BBPath: tt.BBPath}), size(trace.TileTrace{Mem: tt.Mem})
	final := uint64(path + addrs)
	// The path is a bit per condbr, one per iteration.
	if bits := tt.BBPath.Bits(); bits != long || path > bits/8+32 {
		t.Errorf("the path of %d iterations holds %d bits in %d bytes, want %d in %d + its header", long, bits, path, long, long/8)
	}
	// Each of the loop's two loads and store strides 8 bytes through its own
	// array: past their first addresses, a byte an address. (Against the
	// access before, which is in another array, it took three.)
	if n := tt.Mem.Len(); n != 3*long || addrs > n+32 {
		t.Errorf("%d iterations record %d addresses in %d bytes, want %d in %d + their header", long, n, addrs, 3*long, 3*long)
	}

	allocs := func(n int) float64 { return testing.AllocsPerRun(5, func() { run(n) }) }
	// Per stream: its chunks and the appends that list them.
	budget := float64(chunksFor(path) + chunksFor(addrs) + 12)
	if a, b := allocs(short), allocs(long); b-a > budget {
		t.Errorf("10x the iterations cost %.0f more allocations (%.0f -> %.0f), budget %.0f", b-a, a, b, budget)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got*4 > final*5 {
		t.Errorf("a run allocated %d bytes for a %d-byte trace (> 1.25x)", got, final)
	}
}

// TestConcurrentRunsAgree traces four kernels from eight goroutines at once;
// what runs share (pooled images) must leave every trace byte-equal to the one
// a serial run records.
func TestConcurrentRunsAgree(t *testing.T) {
	kernels := []struct {
		fn   func() *ir.Function
		opts Options
	}{
		{vecAdd, Options{}},
		{func() *ir.Function { return kernel(atomicSrc) }, Options{NumTiles: 4, Timeslice: 3}},
		{func() *ir.Function { return kernel(pipelineSrc) }, Options{NumTiles: 2, Timeslice: 7}},
		{func() *ir.Function { return kernel(barrierSrc) }, Options{NumTiles: 6, Timeslice: 2}},
	}
	encode := func(k int) []byte {
		mem := NewMemory(8 << 20)
		defer mem.Release()
		const n = 70_000 // past the first full-size chunk
		a, b := mem.AllocF64(make([]float64, n)), mem.Alloc(n*8, 64)
		args := [][]uint64{{a, a, b, n}, {a, n}, {a, n}, {a, b}}[k]
		res, err := Run(kernels[k].fn(), mem, args, kernels[k].opts)
		if err != nil {
			t.Error(err)
			return nil
		}
		var buf bytes.Buffer
		if _, err := res.Trace.WriteTo(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	want := make([][]byte, len(kernels))
	for k := range kernels {
		want[k] = encode(k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				k := (g + round) % len(kernels)
				if got := encode(k); !bytes.Equal(got, want[k]) {
					t.Errorf("kernel %d traced concurrently differs from its serial trace", k)
				}
			}
		}()
	}
	wg.Wait()
}
