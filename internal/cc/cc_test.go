package cc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
)

// compileAndRun compiles src, runs `kernel` with the given args, and returns
// the memory image for inspection.
func compileAndRun(t *testing.T, src string, mem *interp.Memory, args []uint64, opts interp.Options) *interp.Result {
	t.Helper()
	mod, err := Compile(src, "test")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := mod.Func("kernel")
	if f == nil {
		t.Fatal("no kernel function")
	}
	res, err := interp.Run(f, mem, args, opts)
	if err != nil {
		t.Fatalf("Run: %v\nIR:\n%s", err, f.String())
	}
	return res
}

func TestVecAdd(t *testing.T) {
	src := `
void kernel(double* A, double* B, double* C, long n) {
  for (long i = 0; i < n; i++) {
    C[i] = A[i] + B[i];
  }
}
`
	mem := interp.NewMemory(1 << 20)
	const n = 32
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = 100 - float64(i)
	}
	pa, pb := mem.AllocF64(a), mem.AllocF64(b)
	pc := mem.Alloc(n*8, 64)
	compileAndRun(t, src, mem, []uint64{pa, pb, pc, n}, interp.Options{})
	for i := 0; i < n; i++ {
		if got := mem.ReadF64(pc + uint64(i)*8); got != 100 {
			t.Errorf("C[%d] = %g, want 100", i, got)
		}
	}
}

func TestNoLocalMemoryTraffic(t *testing.T) {
	// Scalar locals must live in SSA registers: the memory trace contains
	// only the array traffic, as with LLVM -O3 kernels.
	src := `
void kernel(double* A, long n) {
  double acc = 0.0;
  long count = 0;
  for (long i = 0; i < n; i++) {
    acc = acc + A[i];
    count++;
  }
  A[0] = acc + (double)count;
}
`
	mem := interp.NewMemory(1 << 20)
	const n = 8
	pa := mem.AllocF64(make([]float64, n))
	res := compileAndRun(t, src, mem, []uint64{pa, n}, interp.Options{})
	// n loads + 1 store, nothing else.
	if got := res.Trace.Tiles[0].Mem.Len(); got != n+1 {
		t.Errorf("memory events = %d, want %d (locals must not hit memory)", got, n+1)
	}
	if got := mem.ReadF64(pa); got != float64(n) {
		t.Errorf("A[0] = %g, want %d", got, n)
	}
}

func TestIfElsePhi(t *testing.T) {
	src := `
void kernel(long* out, long x) {
  long r = 0;
  if (x > 10) {
    r = 1;
  } else if (x > 5) {
    r = 2;
  } else {
    r = 3;
  }
  out[0] = r;
}
`
	for _, tc := range []struct{ x, want int64 }{{20, 1}, {7, 2}, {1, 3}} {
		mem := interp.NewMemory(1 << 20)
		out := mem.Alloc(8, 8)
		compileAndRun(t, src, mem, []uint64{out, uint64(tc.x)}, interp.Options{})
		if got := mem.ReadI64(out); got != tc.want {
			t.Errorf("x=%d: got %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
void kernel(long* out, long n) {
  long sum = 0;
  for (long i = 0; i < n; i++) {
    if (i % 2 == 0) {
      continue;
    }
    if (i > 20) {
      break;
    }
    sum += i;
  }
  out[0] = sum;
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out, 100}, interp.Options{})
	want := int64(1 + 3 + 5 + 7 + 9 + 11 + 13 + 15 + 17 + 19)
	if got := mem.ReadI64(out); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
void kernel(long* out, long n) {
  long v = n;
  long steps = 0;
  while (v != 1) {
    if (v % 2 == 0) {
      v = v / 2;
    } else {
      v = 3 * v + 1;
    }
    steps++;
  }
  out[0] = steps;
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out, 27}, interp.Options{})
	if got := mem.ReadI64(out); got != 111 {
		t.Errorf("collatz(27) steps = %d, want 111", got)
	}
}

func TestShortCircuitAndTernary(t *testing.T) {
	src := `
void kernel(long* out, long a, long b) {
  bool both = a > 0 && b > 0;
  bool either = a > 0 || b > 0;
  out[0] = both ? 1 : 0;
  out[1] = either ? 1 : 0;
  out[2] = (a > b) ? a : b;
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(24, 8)
	negThree := int64(-3)
	compileAndRun(t, src, mem, []uint64{out, 5, uint64(negThree)}, interp.Options{})
	if got := mem.ReadI64(out); got != 0 {
		t.Errorf("both = %d, want 0", got)
	}
	if got := mem.ReadI64(out + 8); got != 1 {
		t.Errorf("either = %d, want 1", got)
	}
	if got := mem.ReadI64(out + 16); got != 5 {
		t.Errorf("max = %d, want 5", got)
	}
}

func TestNestedLoopsMatrixMultiply(t *testing.T) {
	src := `
void kernel(float* A, float* B, float* C, long n) {
  for (long i = 0; i < n; i++) {
    for (long j = 0; j < n; j++) {
      float acc = 0.0;
      for (long k = 0; k < n; k++) {
        acc += A[i*n+k] * B[k*n+j];
      }
      C[i*n+j] = acc;
    }
  }
}
`
	const n = 5
	rng := rand.New(rand.NewSource(7))
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	mem := interp.NewMemory(1 << 20)
	pa, pb := mem.AllocF32(a), mem.AllocF32(b)
	pc := mem.Alloc(n*n*4, 64)
	compileAndRun(t, src, mem, []uint64{pa, pb, pc, n}, interp.Options{})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want float32
			for k := 0; k < n; k++ {
				want += a[i*n+k] * b[k*n+j]
			}
			got := mem.ReadF32(pc + uint64(i*n+j)*4)
			if math.Abs(float64(got-want)) > 1e-5 {
				t.Errorf("C[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestPointerArithmeticAndDeref(t *testing.T) {
	src := `
void kernel(long* A, long n) {
  long* p = A + 2;
  *p = 42;
  long* q = p + 1;
  *q = *p + 1;
  A[0] = q - 0 > 0 ? 1 : 0;
}
`
	mem := interp.NewMemory(1 << 20)
	pa := mem.AllocI64(make([]int64, 8))
	compileAndRun(t, src, mem, []uint64{pa, 8}, interp.Options{})
	if got := mem.ReadI64(pa + 16); got != 42 {
		t.Errorf("A[2] = %d, want 42", got)
	}
	if got := mem.ReadI64(pa + 24); got != 43 {
		t.Errorf("A[3] = %d, want 43", got)
	}
}

func TestGlobalsAndChar(t *testing.T) {
	src := `
global char table[256];

void kernel(long* out, long n) {
  for (long i = 0; i < n; i++) {
    table[i] = (char)(i * 3);
  }
  long sum = 0;
  for (long i = 0; i < n; i++) {
    sum += (long)table[i];
  }
  out[0] = sum;
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out, 10}, interp.Options{})
	want := int64(0)
	for i := int64(0); i < 10; i++ {
		want += int64(int8(i * 3))
	}
	if got := mem.ReadI64(out); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestIntrinsicsSPMD(t *testing.T) {
	src := `
void kernel(double* hist, double* data, long n) {
  long tid = tile_id();
  long nt = num_tiles();
  for (long i = tid; i < n; i += nt) {
    double v = sqrt(data[i]);
    atomic_add(hist, v);
  }
}
`
	mem := interp.NewMemory(1 << 20)
	const n = 64
	data := make([]float64, n)
	want := 0.0
	for i := range data {
		data[i] = float64(i)
		want += math.Sqrt(float64(i))
	}
	hist := mem.AllocF64([]float64{0})
	pd := mem.AllocF64(data)
	compileAndRun(t, src, mem, []uint64{hist, pd, n}, interp.Options{NumTiles: 4})
	if got := mem.ReadF64(hist); math.Abs(got-want) > 1e-9 {
		t.Errorf("hist = %g, want %g", got, want)
	}
}

func TestSendRecvDAEPattern(t *testing.T) {
	// Access tile streams A[i] to the execute tile, which accumulates.
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
	mem := interp.NewMemory(1 << 20)
	const n = 100
	vals := make([]float64, n)
	want := 0.0
	for i := range vals {
		vals[i] = float64(i) * 0.5
		want += vals[i]
	}
	pa := mem.AllocF64(vals)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{pa, out, n}, interp.Options{NumTiles: 2})
	if got := mem.ReadF64(out); got != want {
		t.Errorf("acc = %g, want %g", got, want)
	}
}

func TestAcceleratorCall(t *testing.T) {
	src := `
void kernel(float* A, float* B, float* C, long m, long n, long k) {
  acc_sgemm(A, B, C, m, n, k);
}
`
	mod, err := Compile(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	var accCall *ir.Instr
	for _, in := range mod.Func("kernel").Instrs() {
		if in.Op == ir.OpCall && in.Callee == "acc_sgemm" {
			accCall = in
		}
	}
	if accCall == nil {
		t.Fatal("acc_sgemm call not emitted")
	}
	if len(accCall.Args) != 6 {
		t.Errorf("acc call has %d args, want 6", len(accCall.Args))
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undeclared", "void kernel() { x = 1; }", "undeclared"},
		{"redeclared", "void kernel() { long x = 1; long x = 2; }", "redeclaration"},
		{"bad call", "void kernel() { frobnicate(); }", "unknown function"},
		{"break outside", "void kernel() { break; }", "break outside"},
		{"continue outside", "void kernel() { continue; }", "continue outside"},
		{"void var", "void kernel() { void x; }", "void"},
		{"non-pointer index", "void kernel(long a) { a[0] = 1; }", "non-pointer"},
		{"missing return", "long kernel() { long x = 1; }", "fall off"},
		{"return value in void", "void kernel() { return 1; }", "void function"},
		{"atomic non-pointer", "void kernel(long a) { atomic_add(a, 1); }", "pointer"},
		{"lex error", "void kernel() { $ }", "unexpected character"},
		{"unterminated comment", "void kernel() { /* }", "unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, "t")
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestTypePromotionSemantics(t *testing.T) {
	src := `
void kernel(double* out, int a, long b, float f) {
  out[0] = (double)(a + b);      // int + long -> long
  out[1] = a / 2;                // int division
  out[2] = (double)f * 2.0;      // float -> double
  out[3] = (double)(a % 3);
  out[4] = (double)(7 / 2);      // integer constant division
  out[5] = 7.0 / 2.0;            // float division
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(48, 8)
	compileAndRun(t, src, mem, []uint64{out, uint64(uint32(7)), uint64(1000), interp.ArgF32(1.5)}, interp.Options{})
	checks := []float64{1007, 3, 3, 1, 3, 3.5}
	for i, want := range checks {
		if got := mem.ReadF64(out + uint64(i)*8); got != want {
			t.Errorf("out[%d] = %g, want %g", i, got, want)
		}
	}
}

// TestLoopSumProperty checks compiled loop arithmetic against Go for random
// inputs (property-based end-to-end front-end test).
func TestLoopSumProperty(t *testing.T) {
	src := `
void kernel(long* A, long* out, long n) {
  long even = 0;
  long odd = 0;
  for (long i = 0; i < n; i++) {
    if (A[i] % 2 == 0) {
      even += A[i];
    } else {
      odd += A[i];
    }
  }
  out[0] = even;
  out[1] = odd;
}
`
	mod, err := Compile(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Func("kernel")
	prop := func(vals []int32) bool {
		mem := interp.NewMemory(1 << 22)
		data := make([]int64, len(vals))
		var even, odd int64
		for i, v := range vals {
			data[i] = int64(v)
			if int64(v)%2 == 0 {
				even += int64(v)
			} else {
				odd += int64(v)
			}
		}
		pa := mem.AllocI64(data)
		if len(data) == 0 {
			pa = mem.Alloc(8, 8)
		}
		out := mem.Alloc(16, 8)
		if _, err := interp.Run(f, mem, []uint64{pa, out, uint64(len(data))}, interp.Options{}); err != nil {
			return false
		}
		return mem.ReadI64(out) == even && mem.ReadI64(out+8) == odd
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeadCodeAfterReturnSkipped(t *testing.T) {
	src := `
void kernel(long* out) {
  out[0] = 1;
  return;
  out[0] = 2;
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out}, interp.Options{})
	if got := mem.ReadI64(out); got != 1 {
		t.Errorf("out = %d, want 1", got)
	}
}

func TestLoopWithOnlyBreakTermination(t *testing.T) {
	src := `
void kernel(long* out, long n) {
  long i = 0;
  while (true) {
    if (i >= n) {
      break;
    }
    i++;
  }
  out[0] = i;
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out, 17}, interp.Options{})
	if got := mem.ReadI64(out); got != 17 {
		t.Errorf("i = %d, want 17", got)
	}
}

func TestShadowingInNestedScopes(t *testing.T) {
	src := `
void kernel(long* out, long n) {
  long x = 1;
  for (long i = 0; i < n; i++) {
    long x = 100;   // shadows outer x; must not create a loop phi for outer
    x += i;
  }
  out[0] = x;
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out, 5}, interp.Options{})
	if got := mem.ReadI64(out); got != 1 {
		t.Errorf("outer x = %d, want 1", got)
	}
}

func TestUserFunctionInlining(t *testing.T) {
	src := `
double hypot2(double x, double y) {
  return sqrt(x * x + y * y);
}

long clampi(long v, long lo, long hi) {
  if (v < lo) { return lo; }
  if (v > hi) { return hi; }
  return v;
}

void kernel(double* out, long n) {
  for (long i = 0; i < n; i++) {
    long j = clampi(i - 2, 0, n - 1);
    out[i] = hypot2((double)i, (double)j);
  }
}
`
	mem := interp.NewMemory(1 << 20)
	const n = 12
	out := mem.Alloc(n*8, 64)
	compileAndRun(t, src, mem, []uint64{out, n}, interp.Options{})
	for i := 0; i < n; i++ {
		j := i - 2
		if j < 0 {
			j = 0
		}
		if j > n-1 {
			j = n - 1
		}
		want := math.Hypot(float64(i), float64(j))
		if got := mem.ReadF64(out + uint64(i)*8); math.Abs(got-want) > 1e-12 {
			t.Errorf("out[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestNestedInlining(t *testing.T) {
	src := `
long sq(long x) { return x * x; }
long quad(long x) { return sq(sq(x)); }

void kernel(long* out, long n) {
  out[0] = quad(n);
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out, 3}, interp.Options{})
	if got := mem.ReadI64(out); got != 81 {
		t.Errorf("quad(3) = %d, want 81", got)
	}
}

func TestVoidHelperWithSideEffects(t *testing.T) {
	src := `
void bump(long* p, long d) {
  if (d == 0) {
    return;
  }
  p[0] += d;
}

void kernel(long* out, long n) {
  for (long i = 0; i < n; i++) {
    bump(out, i % 3);
  }
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out, 9}, interp.Options{})
	want := int64(3 * (0 + 1 + 2))
	if got := mem.ReadI64(out); got != want {
		t.Errorf("out = %d, want %d", got, want)
	}
}

func TestInliningInLoopCondition(t *testing.T) {
	src := `
bool below(long i, long n) { return i < n; }

void kernel(long* out, long n) {
  long count = 0;
  for (long i = 0; below(i, n); i++) {
    count++;
  }
  out[0] = count;
}
`
	mem := interp.NewMemory(1 << 20)
	out := mem.Alloc(8, 8)
	compileAndRun(t, src, mem, []uint64{out, 23}, interp.Options{})
	if got := mem.ReadI64(out); got != 23 {
		t.Errorf("count = %d, want 23", got)
	}
}

func TestRecursionRejected(t *testing.T) {
	src := `
long fact(long n) {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
void kernel(long* out) { out[0] = fact(5); }
`
	_, err := Compile(src, "t")
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("want recursion error, got %v", err)
	}
}

func TestInlineArgCountChecked(t *testing.T) {
	src := `
long add2(long a, long b) { return a + b; }
void kernel(long* out) { out[0] = add2(1); }
`
	_, err := Compile(src, "t")
	if err == nil || !strings.Contains(err.Error(), "expects 2 arguments") {
		t.Errorf("want arity error, got %v", err)
	}
}

func TestBreakCannotCrossInlineBoundary(t *testing.T) {
	src := `
void helper() { break; }
void kernel(long* out, long n) {
  for (long i = 0; i < n; i++) { helper(); }
}
`
	_, err := Compile(src, "t")
	if err == nil || !strings.Contains(err.Error(), "break outside") {
		t.Errorf("want break-outside-loop error, got %v", err)
	}
}
