package ir

import (
	"strings"
	"testing"
)

// runPasses parses src, runs the named passes over it, and returns the module.
func runPasses(t *testing.T, src string, passes ...string) *Module {
	t.Helper()
	m := MustParse(src)
	p, err := NewPipeline(OptConfig{Passes: passes})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if err := p.Run(m); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return m
}

func countOps(f *Function, op Opcode) int {
	n := 0
	for _, in := range f.Instrs() {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestCSEDeduplicatesDominatedComputations(t *testing.T) {
	m := runPasses(t, `
module m
func @kernel(%P: ptr, %a: i64, %b: i64) {
entry:
  %x = add %a, %b
  %y = add %a, %b
  %p = gep %P, %x, 8
  %q = gep %P, %y, 8
  store %x, %p
  store %y, %q
  ret
}
`, "cse")
	f := m.Func("kernel")
	if got := countOps(f, OpAdd); got != 1 {
		t.Fatalf("duplicate add not merged, %d remain:\n%s", got, f)
	}
	if got := countOps(f, OpGEP); got != 1 {
		t.Fatalf("geps should merge once operands do, %d remain:\n%s", got, f)
	}
}

func TestCSESkipsNonDominatingSiblings(t *testing.T) {
	m := runPasses(t, `
module m
func @kernel(%P: ptr, %a: i64, %c: i1) {
entry:
  condbr %c, %t, %f
t:
  %x = add %a, 1
  store %x, %P
  br %join
f:
  %y = add %a, 1
  store %y, %P
  br %join
join:
  ret
}
`, "cse")
	f := m.Func("kernel")
	if got := countOps(f, OpAdd); got != 2 {
		t.Fatalf("sibling branches must not CSE into each other, %d adds remain:\n%s", got, f)
	}
}

func TestStrengthReduction(t *testing.T) {
	m := runPasses(t, `
module m
func @kernel(%P: ptr, %a: i64) {
entry:
  %m8 = mul %a, 8
  %id = add %a, 0
  %z = mul %a, 0
  %p = gep %P, %m8, 8
  store %id, %p
  store %z, %p
  ret
}
`, "strength")
	f := m.Func("kernel")
	if countOps(f, OpMul) != 0 || countOps(f, OpShl) != 1 {
		t.Fatalf("mul-by-8 should become one shl:\n%s", f)
	}
	if countOps(f, OpAdd) != 0 {
		t.Fatalf("x+0 should forward its operand:\n%s", f)
	}
	sts := []*Instr{}
	for _, in := range f.Instrs() {
		if in.Op == OpStore {
			sts = append(sts, in)
		}
	}
	if _, ok := sts[0].Args[0].(*Param); !ok {
		t.Fatalf("first store should receive %%a directly:\n%s", f)
	}
	if c, ok := sts[1].Args[0].(*Const); !ok || c.Bits != 0 {
		t.Fatalf("second store should receive constant 0:\n%s", f)
	}
}

const unrollLoopSrc = `
module m
func @kernel(%A: ptr, %n: i64) {
entry:
  br %head
head:
  %i = phi i64 [0, %entry], [%i.next, %latch]
  %c = icmp lt %i, %n
  condbr %c, %body, %exit
body:
  %p = gep %A, %i, 8
  %v = load i64, %p
  %v2 = add %v, 1
  store %v2, %p
  br %latch
latch:
  %i.next = add %i, 1
  br %head
exit:
  %last = gep %A, %i, 8
  store %i, %last
  ret
}
`

func TestLoopUnroll(t *testing.T) {
	m := MustParse(unrollLoopSrc)
	p, err := NewPipeline(OptConfig{Passes: []string{"unroll"}, Unroll: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(m); err != nil {
		t.Fatalf("unroll pipeline: %v", err)
	}
	f := m.Func("kernel")
	// 5 original blocks + 3 copies of the 3-block loop.
	if len(f.Blocks) != 14 {
		t.Fatalf("expected 14 blocks after 4x unroll, got %d:\n%s", len(f.Blocks), f)
	}
	// Every copy retains its exit check.
	if got := countOps(f, OpCondBr); got != 4 {
		t.Fatalf("expected 4 exit checks after 4x unroll, got %d:\n%s", got, f)
	}
	// The header's back edge now comes from the last cloned latch.
	phi := f.BlockByName("head").Instrs[0]
	found := false
	for _, from := range phi.Incoming {
		if from.Ident == "latch.u3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("header phi not rewired to the final copy's latch:\n%s", f)
	}
	// %i escapes the loop into the exit block: it must have been routed
	// through an LCSSA phi covering all four headers.
	exit := f.BlockByName("exit")
	lc := exit.Instrs[0]
	if lc.Op != OpPhi || len(lc.Incoming) != 4 {
		t.Fatalf("expected a 4-way LCSSA phi in the exit block:\n%s", f)
	}
}

func TestLoopUnrollSkipsRotatedAndNestedLoops(t *testing.T) {
	// vecAddSrc's loop is rotated (the header is its own latch) and must be
	// left alone; a nested loop's outer header must also be skipped while
	// the inner loop unrolls.
	m := MustParse(vecAddSrc)
	before := len(m.Func("kernel").Blocks)
	p, err := NewPipeline(OptConfig{Passes: []string{"unroll"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(m); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Func("kernel").Blocks); got != before {
		t.Fatalf("rotated loop should not unroll: %d -> %d blocks", before, got)
	}

	nested := `
module m
func @kernel(%A: ptr, %n: i64) {
entry:
  br %ohead
ohead:
  %i = phi i64 [0, %entry], [%i.next, %olatch]
  %oc = icmp lt %i, %n
  condbr %oc, %ihead, %oexit
ihead:
  %j = phi i64 [0, %ohead], [%j.next, %ilatch]
  %ic = icmp lt %j, %n
  condbr %ic, %ibody, %iexit
ibody:
  %p = gep %A, %j, 8
  store %j, %p
  br %ilatch
ilatch:
  %j.next = add %j, 1
  br %ihead
iexit:
  br %olatch
olatch:
  %i.next = add %i, 1
  br %ohead
oexit:
  ret
}
`
	m2 := MustParse(nested)
	if err := p.Run(m2); err != nil {
		t.Fatal(err)
	}
	f2 := m2.Func("kernel")
	if f2.BlockByName("ihead.u1") == nil {
		t.Fatalf("inner loop should unroll:\n%s", f2)
	}
	if f2.BlockByName("ohead.u1") != nil {
		t.Fatalf("outer loop must not unroll (not innermost):\n%s", f2)
	}
}

func TestPipelineO2EndToEnd(t *testing.T) {
	cfg := OptConfig{Level: "O2"}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Passes) != 4 {
		t.Fatalf("O2 should run 4 passes (strength cse unroll cse), got %d", len(p.Passes))
	}
	m := MustParse(unrollLoopSrc)
	if err := p.Run(m); err != nil {
		t.Fatalf("O2 pipeline: %v", err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("O2 output fails verification: %v", err)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	render := func() string {
		m := MustParse(unrollLoopSrc)
		p, err := NewPipeline(OptConfig{Level: "O2"})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(m); err != nil {
			t.Fatal(err)
		}
		return m.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("O2 pipeline output not deterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestOptConfigHash(t *testing.T) {
	var zero OptConfig
	o0 := OptConfig{Level: "O0"}
	cse := OptConfig{Passes: []string{"cse"}}
	o2 := OptConfig{Level: "O2"}
	if zero.Hash() != o0.Hash() {
		t.Fatal("zero config must hash as O0")
	}
	if o0.Hash() == o2.Hash() || cse.Hash() == o2.Hash() || o0.Hash() == cse.Hash() {
		t.Fatal("distinct pass lists must hash distinctly")
	}
	// The unroll factor only matters when the unroll pass actually runs.
	if (OptConfig{Passes: []string{"cse"}, Unroll: 8}).Hash() != cse.Hash() {
		t.Fatal("unroll factor must not perturb a pipeline without unroll")
	}
	if (OptConfig{Level: "O2", Unroll: 8}).Hash() == o2.Hash() {
		t.Fatal("unroll factor must distinguish pipelines that unroll")
	}
	// An explicit pass list identical to a level's resolution aliases it.
	passes, err := o2.PassList()
	if err != nil {
		t.Fatal(err)
	}
	if (OptConfig{Passes: passes}).Hash() != o2.Hash() {
		t.Fatal("explicit O2 pass list must hash like O2")
	}
}

func TestParseOptConfig(t *testing.T) {
	for _, lvl := range []string{"", "0", "O0", "o0"} {
		cfg, err := ParseOptConfig(lvl, "", 0)
		if err != nil || !cfg.IsDefault() {
			t.Fatalf("ParseOptConfig(%q) = %+v, %v; want default O0", lvl, cfg, err)
		}
	}
	cfg, err := ParseOptConfig("2", "", 0)
	if err != nil || cfg.Level != "O2" {
		t.Fatalf("ParseOptConfig(2) = %+v, %v", cfg, err)
	}
	cfg, err = ParseOptConfig("", "cse, strength", 0)
	if err != nil || len(cfg.Passes) != 2 {
		t.Fatalf("explicit pass list: %+v, %v", cfg, err)
	}
	// A level or pass that does not exist is refused with the ones that do.
	for _, lvl := range []string{"1", "O1", "3"} {
		if _, err := ParseOptConfig(lvl, "", 0); err == nil || !strings.Contains(err.Error(), "(have O0, O2)") {
			t.Fatalf("ParseOptConfig(%q) = %v, want an unknown-level error naming O0 and O2", lvl, err)
		}
	}
	for _, passes := range []string{"constfold", "dce", "cse,dce", "constfolded"} {
		if _, err := ParseOptConfig("", passes, 0); err == nil || !strings.Contains(err.Error(), "(have cse, strength, unroll)") {
			t.Fatalf("ParseOptConfig(passes %q) = %v, want an unknown-pass error naming the passes", passes, err)
		}
	}
	if _, err := ParseOptConfig("2", "", MaxUnroll+1); err == nil {
		t.Fatal("out-of-range unroll must error")
	}
	if got := (OptConfig{Level: "O2"}).String(); !strings.Contains(got, "unroll:4") {
		t.Fatalf("String should render the effective unroll factor, got %q", got)
	}
}

// TestLoopUnrollLCSSAAllExitUses is a regression test: the LCSSA rewrite
// inserts phis into the exit block while scanning it, and an in-place
// insertion used to shift later instructions past the scan, leaving their
// loop-defined operands pointing at the original header phi (and so losing
// every cloned iteration's update). Every exit-block use of a loop value
// must read an .lcssa phi with one incoming per retained exit check.
func TestLoopUnrollLCSSAAllExitUses(t *testing.T) {
	m := MustParse(`
module m
func @kernel(%A: ptr, %n: i64) {
entry:
  br %head
head:
  %i = phi i64 [0, %entry], [%i.next, %latch]
  %a = phi i64 [1, %entry], [%a.next, %latch]
  %b = phi i64 [2, %entry], [%b.next, %latch]
  %c = icmp lt %i, %n
  condbr %c, %body, %exit
body:
  %a.next = add %a, 3
  %b.next = add %b, 5
  br %latch
latch:
  %i.next = add %i, 1
  br %head
exit:
  %p0 = gep %A, 0, 8
  store %a, %p0
  %p1 = gep %A, 1, 8
  store %b, %p1
  %p2 = gep %A, 2, 8
  store %i, %p2
  ret
}
`)
	p, err := NewPipeline(OptConfig{Passes: []string{"unroll"}, Unroll: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(m); err != nil {
		t.Fatal(err)
	}
	f := m.Func("kernel")
	var exit *Block
	for _, b := range f.Blocks {
		if b.Ident == "exit" {
			exit = b
		}
	}
	if exit == nil {
		t.Fatal("exit block missing after unroll")
	}
	stores := 0
	for _, in := range exit.Instrs {
		if in.Op != OpStore {
			continue
		}
		stores++
		d, ok := in.Args[0].(*Instr)
		if !ok || d.Op != OpPhi || d.Parent != exit {
			t.Fatalf("store %d reads %v, want an lcssa phi in exit", stores, in.Args[0])
		}
		if len(d.Incoming) != 4 {
			t.Fatalf("lcssa phi %s has %d incomings, want 4", d.Ident, len(d.Incoming))
		}
	}
	if stores != 3 {
		t.Fatalf("expected 3 stores in exit, found %d", stores)
	}
}
