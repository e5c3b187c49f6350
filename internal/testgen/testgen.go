// Package testgen generates random, well-typed mini-C kernels and checks
// that the optimization pipeline preserves their behavior. It is the
// standing differential-testing harness for the whole cc→ir pipeline: a
// generated kernel is compiled at several opt levels, each module is run
// through the interpreter on identical inputs, and the resulting memory
// images must match bit for bit.
//
// Kernels are safe by construction rather than by checking:
//
//   - every array index is masked with `& 63` against the fixed array
//     length N, so loads and stores cannot go out of bounds;
//   - every integer divisor is forced odd with `| 1`, so sdiv/srem can
//     never trap on zero;
//   - shift amounts are masked with `& 15`;
//   - loops iterate over compile-time constant bounds, so every kernel
//     terminates.
//
// Because safety is structural, any interpreter error or output mismatch is
// a real compiler bug, not a property of the input.
package testgen

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"mosaicsim/internal/cc"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/trace"
)

// N is the element count of each kernel array argument. Indices are masked
// with N-1, so it must stay a power of two.
const N = 64

// Levels are the opt configs every generated kernel is checked across.
func Levels() []ir.OptConfig {
	return []ir.OptConfig{
		{Level: "O0"},
		{Level: "O2"},
		{Level: "O2", Unroll: 2},
	}
}

// Source returns a deterministic random kernel for seed with the fixed
// signature `void kernel(long* A, long* B, double* F, long n)`.
func Source(seed int64) string {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	return g.kernel()
}

type gen struct {
	rng    *rand.Rand
	sb     strings.Builder
	indent int
	ints   []string // int (long) locals readable in scope
	muts   []string // subset of ints that may be assigned (no loop vars)
	floats []string // double locals in scope
	nvar   int
	budget int // statements remaining
	depth  int // loop/if nesting depth
	fuel   int // expression nodes remaining for the current statement
}

func (g *gen) kernel() string {
	g.sb.WriteString("void kernel(long* A, long* B, double* F, long n) {\n")
	g.indent = 1
	g.budget = 12 + g.rng.Intn(14)
	// Seed a few locals so expressions have material from the start.
	for i := 0; i < 2; i++ {
		g.declInt()
		g.declFloat()
	}
	for g.budget > 0 {
		g.stmt()
	}
	// Make every top-level local observable: without these stores, a pass could
	// legally delete a miscompiled computation before it ever disagrees.
	for i, v := range g.ints {
		g.linef("A[%d] = %s;", (40+i)&(N-1), v)
	}
	for i, v := range g.floats {
		g.linef("F[%d] = %s;", (40+i)&(N-1), v)
	}
	g.sb.WriteString("}\n")
	return g.sb.String()
}

func (g *gen) linef(format string, args ...any) {
	g.sb.WriteString(strings.Repeat("  ", g.indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

func (g *gen) declInt() string {
	name := fmt.Sprintf("x%d", g.nvar)
	g.nvar++
	g.linef("long %s = %s;", name, g.intExpr(2))
	g.ints = append(g.ints, name)
	g.muts = append(g.muts, name)
	return name
}

func (g *gen) declFloat() string {
	name := fmt.Sprintf("f%d", g.nvar)
	g.nvar++
	g.linef("double %s = %s;", name, g.floatExpr(2))
	g.floats = append(g.floats, name)
	return name
}

func (g *gen) stmt() {
	g.budget--
	g.fuel = 40
	switch r := g.rng.Intn(12); {
	case r < 2 && g.depth < 2:
		g.forLoop()
	case r < 4 && g.depth < 2:
		g.ifStmt()
	case r == 4:
		g.declInt()
	case r == 5:
		g.declFloat()
	case r < 8:
		// Compound assignment to an existing local. Loop induction
		// variables are never assignment targets — termination depends on
		// the loop header alone controlling them.
		if g.rng.Intn(2) == 0 {
			v := g.muts[g.rng.Intn(len(g.muts))]
			ops := []string{"=", "+=", "-=", "*=", "^=", "&="}
			g.linef("%s %s %s;", v, ops[g.rng.Intn(len(ops))], g.intExpr(2))
		} else {
			v := g.floats[g.rng.Intn(len(g.floats))]
			ops := []string{"=", "+=", "-=", "*="}
			g.linef("%s %s %s;", v, ops[g.rng.Intn(len(ops))], g.floatExpr(2))
		}
	default:
		// Array store — the main observable effect.
		switch g.rng.Intn(3) {
		case 0:
			g.linef("A[%s] = %s;", g.indexExpr(), g.intExpr(2))
		case 1:
			g.linef("B[%s] = %s;", g.indexExpr(), g.intExpr(2))
		default:
			g.linef("F[%s] = %s;", g.indexExpr(), g.floatExpr(2))
		}
	}
}

func (g *gen) forLoop() {
	iv := fmt.Sprintf("i%d", g.nvar)
	g.nvar++
	bound := 1 + g.rng.Intn(N)
	g.linef("for (long %s = 0; %s < %d; %s++) {", iv, iv, bound, iv)
	g.indent++
	g.depth++
	// The loop variable and anything declared in the body leave scope when
	// the loop closes; restore the visible-variable state afterwards.
	savedI, savedM, savedF := len(g.ints), len(g.muts), len(g.floats)
	g.ints = append(g.ints, iv)
	body := 1 + g.rng.Intn(3)
	for i := 0; i < body && g.budget > -4; i++ {
		g.stmt()
	}
	g.ints, g.muts, g.floats = g.ints[:savedI], g.muts[:savedM], g.floats[:savedF]
	g.depth--
	g.indent--
	g.linef("}")
}

func (g *gen) ifStmt() {
	g.linef("if (%s) {", g.condExpr())
	g.indent++
	g.depth++
	savedI, savedM, savedF := len(g.ints), len(g.muts), len(g.floats)
	body := 1 + g.rng.Intn(2)
	for i := 0; i < body && g.budget > -4; i++ {
		g.stmt()
	}
	g.ints, g.muts, g.floats = g.ints[:savedI], g.muts[:savedM], g.floats[:savedF]
	if g.rng.Intn(2) == 0 {
		g.indent--
		g.linef("} else {")
		g.indent++
		for i := 0; i < 1+g.rng.Intn(2) && g.budget > -4; i++ {
			g.stmt()
		}
		g.ints, g.muts, g.floats = g.ints[:savedI], g.muts[:savedM], g.floats[:savedF]
	}
	g.depth--
	g.indent--
	g.linef("}")
}

// indexExpr yields an always-in-bounds array index.
func (g *gen) indexExpr() string {
	return fmt.Sprintf("(%s) & %d", g.intExpr(1), N-1)
}

// simpleInt is the recursion-free leaf: a constant or an in-scope local.
func (g *gen) simpleInt() string {
	if len(g.ints) == 0 || g.rng.Intn(3) == 0 {
		return fmt.Sprint(g.rng.Int63n(2048) - 1024)
	}
	return g.ints[g.rng.Intn(len(g.ints))]
}

func (g *gen) intLeaf() string {
	g.fuel--
	if g.fuel <= 0 {
		return g.simpleInt()
	}
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprint(g.rng.Int63n(2048) - 1024)
	case 1:
		// Small power-of-two-ish constants feed the strength-reduction pass.
		return fmt.Sprint([]int{0, 1, 2, 4, 8, 16, 64}[g.rng.Intn(7)])
	case 2:
		return fmt.Sprintf("A[%s]", g.indexExpr())
	case 3:
		return fmt.Sprintf("B[%s]", g.indexExpr())
	default:
		return g.simpleInt()
	}
}

func (g *gen) intExpr(d int) string {
	if d <= 0 {
		return g.intLeaf()
	}
	switch g.rng.Intn(12) {
	case 0, 1:
		ops := []string{"+", "-", "*"}
		return fmt.Sprintf("(%s %s %s)", g.intExpr(d-1), ops[g.rng.Intn(3)], g.intExpr(d-1))
	case 2:
		// Divisor forced odd: never zero.
		return fmt.Sprintf("(%s / (%s | 1))", g.intExpr(d-1), g.intExpr(d-1))
	case 3:
		return fmt.Sprintf("(%s %% (%s | 1))", g.intExpr(d-1), g.intExpr(d-1))
	case 4:
		ops := []string{"&", "|", "^"}
		return fmt.Sprintf("(%s %s %s)", g.intExpr(d-1), ops[g.rng.Intn(3)], g.intExpr(d-1))
	case 5:
		ops := []string{"<<", ">>"}
		return fmt.Sprintf("(%s %s (%s & 15))", g.intExpr(d-1), ops[g.rng.Intn(2)], g.intExpr(d-1))
	case 6:
		// Wrap the operand so a leading negative literal cannot fuse into
		// `--` and lex as a decrement.
		ops := []string{"-", "~"}
		return fmt.Sprintf("(%s(%s))", ops[g.rng.Intn(2)], g.intExpr(d-1))
	case 7:
		return fmt.Sprintf("(%s ? %s : %s)", g.condExpr(), g.intExpr(d-1), g.intExpr(d-1))
	case 8:
		return fmt.Sprintf("(long)(%s)", g.floatExpr(d-1))
	default:
		return g.intLeaf()
	}
}

// simpleFloat is the recursion-free leaf: a literal or an in-scope local.
func (g *gen) simpleFloat() string {
	if len(g.floats) == 0 || g.rng.Intn(3) == 0 {
		return fmt.Sprintf("%.4f", g.rng.Float64()*64.0-32.0)
	}
	return g.floats[g.rng.Intn(len(g.floats))]
}

func (g *gen) floatLeaf() string {
	g.fuel--
	if g.fuel <= 0 {
		return g.simpleFloat()
	}
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%.4f", g.rng.Float64()*64.0-32.0)
	case 1:
		return fmt.Sprintf("F[%s]", g.indexExpr())
	case 2:
		return fmt.Sprintf("(double)(%s)", g.intLeaf())
	default:
		return g.simpleFloat()
	}
}

func (g *gen) floatExpr(d int) string {
	if d <= 0 {
		return g.floatLeaf()
	}
	switch g.rng.Intn(8) {
	case 0, 1:
		ops := []string{"+", "-", "*", "/"}
		return fmt.Sprintf("(%s %s %s)", g.floatExpr(d-1), ops[g.rng.Intn(4)], g.floatExpr(d-1))
	case 2:
		return fmt.Sprintf("fabs(%s)", g.floatExpr(d-1))
	case 3:
		return fmt.Sprintf("sqrt(fabs(%s))", g.floatExpr(d-1))
	case 4:
		return fmt.Sprintf("fmin(%s, %s)", g.floatExpr(d-1), g.floatExpr(d-1))
	case 5:
		return fmt.Sprintf("(double)(%s)", g.intExpr(d-1))
	default:
		return g.floatLeaf()
	}
}

func (g *gen) condExpr() string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	op := ops[g.rng.Intn(len(ops))]
	if g.rng.Intn(4) == 0 {
		return fmt.Sprintf("(%s %s %s)", g.floatExpr(1), op, g.floatExpr(1))
	}
	return fmt.Sprintf("(%s %s %s)", g.intExpr(1), op, g.intExpr(1))
}

// Snapshot compiles src at opt, runs its `kernel` function in the
// interpreter on a fixed deterministic input image, and returns the raw
// bit patterns of the A, B, and F arrays afterwards. Two opt configs are
// behaviorally equivalent for src exactly when their snapshots match.
func Snapshot(src string, opt ir.OptConfig) ([]uint64, error) {
	image, _, _, err := Run(src, opt)
	return image, err
}

// Run is Snapshot that also returns the compiled kernel and the dynamic trace
// of the run, so the interpreter's own output and the timing model's can be
// pinned on generated kernels.
func Run(src string, opt ir.OptConfig) ([]uint64, *ir.Function, *trace.Trace, error) {
	mod, err := cc.CompileWithOpt(src, "testgen", opt)
	if err != nil {
		return nil, nil, nil, err
	}
	f := mod.Func("kernel")
	if f == nil {
		return nil, nil, nil, errors.New("testgen: generated module has no kernel function")
	}
	image, tr, err := RunTiles([]*ir.Function{f})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("testgen: interp at %s: %w", opt, err)
	}
	return image, f, tr, nil
}

// RunTiles runs fns, one per tile, on Run's input image and returns the
// arrays' bit patterns afterwards and the run's trace.
func RunTiles(fns []*ir.Function) ([]uint64, *trace.Trace, error) {
	mem := interp.NewMemory(1 << 20)
	defer mem.Release()

	a := make([]int64, N)
	b := make([]int64, N)
	fl := make([]float64, N)
	for i := range a {
		a[i] = int64(i*i - 3*i + 7)
		b[i] = int64((i * 2654435761) % 1000003)
		if i%5 == 0 {
			a[i] = -a[i]
		}
		fl[i] = float64(i)*1.5 - 40.0
	}
	pa := mem.AllocI64(a)
	pb := mem.AllocI64(b)
	pf := mem.AllocF64(fl)
	args := []uint64{interp.ArgPtr(pa), interp.ArgPtr(pb), interp.ArgPtr(pf), interp.ArgI64(N)}
	res, err := interp.RunTiles(fns, mem, args, interp.Options{MaxSteps: 1 << 26})
	if err != nil {
		return nil, nil, err
	}

	out := make([]uint64, 0, 3*N)
	for i := 0; i < N; i++ {
		out = append(out, mem.LoadScalar(pa+uint64(8*i), ir.I64))
	}
	for i := 0; i < N; i++ {
		out = append(out, mem.LoadScalar(pb+uint64(8*i), ir.I64))
	}
	for i := 0; i < N; i++ {
		out = append(out, mem.LoadScalar(pf+uint64(8*i), ir.F64))
	}
	return out, res.Trace, nil
}
