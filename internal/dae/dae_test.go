package dae

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mosaicsim/internal/cc"
	"mosaicsim/internal/config"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/testgen"
)

// runOriginal executes the undecoupled kernel on P tiles and returns the
// interesting memory region.
func runKernel(t *testing.T, fns []*ir.Function, setup func(m *interp.Memory) ([]uint64, uint64, int)) []float64 {
	t.Helper()
	m := interp.NewMemory(1 << 24)
	args, outAddr, outLen := setup(m)
	if _, err := interp.RunTiles(fns, m, args, interp.Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make([]float64, outLen)
	for i := range out {
		out[i] = m.ReadF64(outAddr + uint64(i)*8)
	}
	return out
}

// expand duplicates the kernel for p SPMD tiles; pair expands the slices for
// p pairs (access on even tiles, execute on odd).
func expand(f *ir.Function, p int) []*ir.Function {
	fns := make([]*ir.Function, p)
	for i := range fns {
		fns[i] = f
	}
	return fns
}

func pairFns(s *Slices, pairs int) []*ir.Function {
	var fns []*ir.Function
	for i := 0; i < pairs; i++ {
		fns = append(fns, s.Access, s.Execute)
	}
	return fns
}

const computeKernel = `
void kernel(double* A, double* B, double* C, long n) {
  long tid = tile_id();
  long nt = num_tiles();
  long chunk = (n + nt - 1) / nt;
  long lo = tid * chunk;
  long hi = lo + chunk;
  if (hi > n) { hi = n; }
  for (long i = lo; i < hi; i++) {
    double x = A[i];
    double y = B[i];
    C[i] = sqrt(x * x + y * y) + (double)i * 0.5;
  }
}
`

func computeSetup(n int) func(m *interp.Memory) ([]uint64, uint64, int) {
	return func(m *interp.Memory) ([]uint64, uint64, int) {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(i%17) * 0.25
			b[i] = float64(i%13) * 0.75
		}
		pa, pb := m.AllocF64(a), m.AllocF64(b)
		pc := m.Alloc(int64(n)*8, 64)
		return []uint64{pa, pb, pc, uint64(n)}, pc, n
	}
}

func mustSlice(t *testing.T, src string) (*ir.Function, *Slices) {
	t.Helper()
	mod, err := cc.Compile(src, "k")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := mod.Func("kernel")
	s, err := Slice(f)
	if err != nil {
		t.Fatalf("slice: %v\nIR:\n%s", err, f.String())
	}
	return f, s
}

func TestSliceStructure(t *testing.T) {
	_, s := mustSlice(t, computeKernel)
	countCalls := func(f *ir.Function, callee string) int {
		n := 0
		for _, in := range f.Instrs() {
			if in.Op == ir.OpCall && in.Callee == callee {
				n++
			}
		}
		return n
	}
	countOp := func(f *ir.Function, op ir.Opcode) int {
		n := 0
		for _, in := range f.Instrs() {
			if in.Op == op {
				n++
			}
		}
		return n
	}
	// Access: 2 loads each sent, 1 store receiving its value, no compute sqrt.
	if got := countOp(s.Access, ir.OpLoad); got != 2 {
		t.Errorf("access loads = %d, want 2", got)
	}
	if got := countCalls(s.Access, "send"); got != 2 {
		t.Errorf("access sends = %d, want 2", got)
	}
	if got := countCalls(s.Access, "recv"); got != 1 {
		t.Errorf("access recvs = %d, want 1 (store value)", got)
	}
	if got := countOp(s.Access, ir.OpStore); got != 1 {
		t.Errorf("access stores = %d, want 1", got)
	}
	if got := countCalls(s.Access, "sqrt"); got != 0 {
		t.Errorf("access must not compute sqrt, found %d", got)
	}
	// Execute: receives 2 loads, computes, sends the store value, no memory.
	if got := countOp(s.Execute, ir.OpLoad) + countOp(s.Execute, ir.OpStore); got != 0 {
		t.Errorf("execute has %d memory ops, want 0", got)
	}
	if got := countCalls(s.Execute, "recv"); got != 2 {
		t.Errorf("execute recvs = %d, want 2", got)
	}
	if got := countCalls(s.Execute, "send"); got != 1 {
		t.Errorf("execute sends = %d, want 1", got)
	}
	if got := countCalls(s.Execute, "sqrt"); got != 1 {
		t.Errorf("execute sqrt calls = %d, want 1", got)
	}
	if s.CommLoads != 2 || s.CommStores != 1 {
		t.Errorf("comm counts: loads=%d stores=%d, want 2/1", s.CommLoads, s.CommStores)
	}
}

func TestSliceEquivalenceSinglePair(t *testing.T) {
	f, s := mustSlice(t, computeKernel)
	want := runKernel(t, expand(f, 1), computeSetup(300))
	got := runKernel(t, pairFns(s, 1), computeSetup(300))
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("C[%d]: original %g, DAE %g", i, want[i], got[i])
		}
	}
}

// TestSlicePreservesGeneratedKernels: a generated kernel's access and execute
// slices, run as one pair, leave the memory image the kernel leaves, at
// every opt level.
func TestSlicePreservesGeneratedKernels(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			src := testgen.Source(seed)
			for _, opt := range testgen.Levels() {
				want, f, _, err := testgen.Run(src, opt)
				if err != nil {
					t.Fatal(err)
				}
				s, err := Slice(f)
				if err != nil {
					t.Fatalf("at %s: %v", opt, err)
				}
				got, _, err := testgen.RunTiles([]*ir.Function{s.Access, s.Execute})
				if err != nil {
					t.Fatalf("sliced at %s: %v", opt, err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("at %s: the slices leave another memory image than the kernel\n%s", opt, src)
				}
			}
		})
	}
}

func TestSliceEquivalenceMultiPair(t *testing.T) {
	f, s := mustSlice(t, computeKernel)
	want := runKernel(t, expand(f, 4), computeSetup(1000))
	got := runKernel(t, pairFns(s, 4), computeSetup(1000))
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("C[%d]: original %g, DAE %g", i, want[i], got[i])
		}
	}
}

// The bipartite graph projection kernel (§VII-A): irregular accesses and an
// atomic accumulation whose delta is compute-owned.
const projectionKernel = `
void kernel(long* rows, long* cols, double* wts, double* proj, long nA, long nP) {
  long tid = tile_id();
  long nt = num_tiles();
  for (long a = tid; a < nA; a += nt) {
    long start = rows[a];
    long end = rows[a+1];
    for (long e1 = start; e1 < end; e1++) {
      for (long e2 = start; e2 < end; e2++) {
        long u = cols[e1];
        long v = cols[e2];
        if (u != v) {
          double w = wts[e1] * wts[e2];
          atomic_add(proj + (u * nP + v) % (nP * nP), w);
        }
      }
    }
  }
}
`

func projectionSetup(nA, deg, nP int) func(m *interp.Memory) ([]uint64, uint64, int) {
	return func(m *interp.Memory) ([]uint64, uint64, int) {
		rows := make([]int64, nA+1)
		var cols []int64
		var wts []float64
		for a := 0; a < nA; a++ {
			rows[a] = int64(len(cols))
			for d := 0; d < deg; d++ {
				cols = append(cols, int64((a*7+d*13)%nP))
				wts = append(wts, float64((a+d)%5)*0.5)
			}
		}
		rows[nA] = int64(len(cols))
		pr := m.AllocI64(rows)
		pc := m.AllocI64(cols)
		pw := m.AllocF64(wts)
		pp := m.Alloc(int64(nP*nP)*8, 64)
		return []uint64{pr, pc, pw, pp, uint64(nA), uint64(nP)}, pp, nP * nP
	}
}

func TestProjectionEquivalence(t *testing.T) {
	f, s := mustSlice(t, projectionKernel)
	want := runKernel(t, expand(f, 2), projectionSetup(40, 6, 16))
	got := runKernel(t, pairFns(s, 2), projectionSetup(40, 6, 16))
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("proj[%d]: original %g, DAE %g", i, want[i], got[i])
		}
	}
}

// Data-dependent control: the branch condition depends on a loaded value, so
// the execute slice must receive it.
const dataDepControl = `
void kernel(double* A, double* C, long n) {
  double acc = 0.0;
  for (long i = 0; i < n; i++) {
    if (A[i] > 0.5) {
      acc += A[i] * 2.0;
    } else {
      acc -= 1.0;
    }
  }
  C[0] = acc;
}
`

func TestDataDependentControlEquivalence(t *testing.T) {
	f, s := mustSlice(t, dataDepControl)
	setup := func(m *interp.Memory) ([]uint64, uint64, int) {
		vals := make([]float64, 200)
		for i := range vals {
			vals[i] = float64(i%10) / 9.0
		}
		pa := m.AllocF64(vals)
		pc := m.Alloc(8, 8)
		return []uint64{pa, pc, 200}, pc, 1
	}
	want := runKernel(t, expand(f, 1), setup)
	got := runKernel(t, pairFns(s, 1), setup)
	if want[0] != got[0] {
		t.Fatalf("original %g, DAE %g", want[0], got[0])
	}
}

// A pure copy kernel: no value computation, so no communication at all.
const copyKernel = `
void kernel(double* A, double* B, long n) {
  for (long i = 0; i < n; i++) {
    B[i] = A[i];
  }
}
`

func TestCopyKernelNeedsNoCommunication(t *testing.T) {
	f, s := mustSlice(t, copyKernel)
	if s.CommLoads != 0 || s.CommStores != 0 {
		t.Errorf("copy kernel comm: loads=%d stores=%d, want 0/0", s.CommLoads, s.CommStores)
	}
	setup := func(m *interp.Memory) ([]uint64, uint64, int) {
		vals := make([]float64, 64)
		for i := range vals {
			vals[i] = float64(i)
		}
		pa := m.AllocF64(vals)
		pb := m.Alloc(64*8, 64)
		return []uint64{pa, pb, 64}, pb, 64
	}
	want := runKernel(t, expand(f, 1), setup)
	got := runKernel(t, pairFns(s, 1), setup)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("B[%d]: original %g, DAE %g", i, want[i], got[i])
		}
	}
}

func TestRejectsAlreadyDecoupled(t *testing.T) {
	src := `
void kernel(double* A, long n) {
  send(1, A[0]);
}
`
	mod, err := cc.Compile(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Slice(mod.Func("kernel"))
	if err == nil || !strings.Contains(err.Error(), "already uses explicit communication") {
		t.Errorf("want explicit-communication error, got %v", err)
	}
}

// TestDAETimingSpeedup: one DAE pair of in-order cores beats a single
// in-order core on a latency-bound kernel (the §VII-A premise).
func TestDAETimingSpeedup(t *testing.T) {
	f, s := mustSlice(t, dataDepControl)
	setup := func(m *interp.Memory) []uint64 {
		vals := make([]float64, 3000)
		for i := range vals {
			vals[i] = float64(i%10) / 9.0
		}
		return []uint64{m.AllocF64(vals), m.Alloc(8, 8), 3000}
	}
	memCfg := config.TableIIMem()

	runSys := func(fns []*ir.Function, cfgs []config.CoreConfig) int64 {
		m := interp.NewMemory(1 << 24)
		args := setup(m)
		res, err := interp.RunTiles(fns, m, args, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var tiles []soc.TileSpec
		for i, fn := range fns {
			tiles = append(tiles, soc.TileSpec{Cfg: cfgs[i], Graph: ddg.Build(fn), TT: res.Trace.Tiles[i]})
		}
		sys, err := soc.New("t", tiles, memCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(context.Background(), 500_000_000); err != nil {
			t.Fatal(err)
		}
		return sys.Cycles
	}

	ino := config.InOrderCore()
	single := runSys([]*ir.Function{f}, []config.CoreConfig{ino})
	daeCore := ino
	daeCore.DecoupledSupply = true
	pair := runSys([]*ir.Function{s.Access, s.Execute}, []config.CoreConfig{daeCore, daeCore})
	if pair >= single {
		t.Errorf("DAE pair (%d cycles) did not beat single InO core (%d cycles)", pair, single)
	}
}
