package mosaicsim

// End-to-end tests of the public facade.

import (
	"context"
	"strings"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
)

const facadeSrc = `
void kernel(double* A, double* B, long n) {
  long tid = tile_id();
  long nt = num_tiles();
  long chunk = (n + nt - 1) / nt;
  long lo = tid * chunk;
  long hi = lo + chunk;
  if (hi > n) { hi = n; }
  for (long i = lo; i < hi; i++) {
    B[i] = 2.0 * A[i] + 1.0;
  }
}
`

func setupFacade(t *testing.T, n int) (*Kernel, *Memory, []uint64, uint64) {
	t.Helper()
	mod, err := Compile(facadeSrc, "facade")
	if err != nil {
		t.Fatal(err)
	}
	k, err := KernelOf(mod, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(1 << 22)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	pa := mem.AllocF64(vals)
	pb := mem.Alloc(int64(n)*8, 64)
	return k, mem, []uint64{ArgPtr(pa), ArgPtr(pb), ArgI64(int64(n))}, pb
}

func TestFacadePipeline(t *testing.T) {
	k, mem, args, pb := setupFacade(t, 256)
	tr, err := k.Trace(mem, args, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tiles) != 4 {
		t.Fatalf("tiles = %d", len(tr.Tiles))
	}
	for i := 0; i < 256; i++ {
		want := 2*float64(i) + 1
		if got := mem.ReadF64(pb + uint64(i)*8); got != want {
			t.Fatalf("B[%d] = %g, want %g", i, got, want)
		}
	}
	res, err := Simulate(config.XeonSystem(4), k, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Instrs != tr.TotalDynInstrs() {
		t.Errorf("result: %+v", res)
	}
}

func TestFacadeDecouple(t *testing.T) {
	mod, err := Compile(facadeSrc, "facade")
	if err != nil {
		t.Fatal(err)
	}
	k, err := KernelOf(mod, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	access, execute, err := Decouple(k)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(access.Fn.Ident, ".access") || !strings.HasSuffix(execute.Fn.Ident, ".execute") {
		t.Errorf("slice names: %q, %q", access.Fn.Ident, execute.Fn.Ident)
	}
	// Trace the pair and confirm the decoupled run computes the same values.
	mem := NewMemory(1 << 22)
	n := 128
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	pa := mem.AllocF64(vals)
	pb := mem.Alloc(int64(n)*8, 64)
	args := []uint64{ArgPtr(pa), ArgPtr(pb), ArgI64(int64(n))}
	traced, err := interp.RunTiles([]*Function{access.Fn, execute.Fn}, mem, args, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := traced.Trace
	if len(tr.Tiles) != 2 {
		t.Fatalf("tiles = %d", len(tr.Tiles))
	}
	for i := 0; i < n; i++ {
		want := 2*float64(i) + 1
		if got := mem.ReadF64(pb + uint64(i)*8); got != want {
			t.Fatalf("decoupled B[%d] = %g, want %g", i, got, want)
		}
	}
	// Simulate the heterogeneous pair.
	ino := InOrderCore()
	ino.DecoupledSupply = true
	sys, err := soc.New("dae", []soc.TileSpec{
		{Cfg: ino, Graph: access.Graph, TT: tr.Tiles[0]},
		{Cfg: ino, Graph: execute.Graph, TT: tr.Tiles[1]},
	}, TableIIMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if sys.Cycles <= 0 {
		t.Error("no cycles")
	}
}

// TestFacadeBuiltIR: KernelOf takes a module however it was built, here one
// written with ir.Builder.
func TestFacadeBuiltIR(t *testing.T) {
	mod := ir.NewModule("m")
	b := ir.NewBuilder(mod)
	b.NewFunc("f", ir.NewParam("n", ir.I64))
	b.Ret(nil)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := KernelOf(mod, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := KernelOf(mod, "missing"); err == nil {
		t.Error("missing kernel accepted")
	}
}

func TestFacadeCompileError(t *testing.T) {
	if _, err := Compile("void kernel() { oops(); }", "bad"); err == nil {
		t.Error("bad source accepted")
	}
}
