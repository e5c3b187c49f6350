package ir

import "fmt"

// Pass is one IR-to-IR transformation over a single function. A pass must be
// deterministic (same input function, same output function) and must preserve
// interpreter semantics: internal/testgen pins every pass sequence against
// internal/interp ground truth over generated kernels.
//
// Passes run under Pipeline, which re-numbers IDs and re-verifies the
// function after every pass, so a pass is free to splice blocks and
// instructions without maintaining IDs itself.
type Pass interface {
	// Name returns the pass's registry name (one of PassNames).
	Name() string
	// Run transforms f in place and reports whether anything changed.
	Run(f *Function) bool
}

// PassError reports a function that failed verification after a pass ran —
// always a pass bug, never a property of the input program.
type PassError struct {
	Pass string // pass name
	Fn   string // function name
	Err  error  // the underlying *VerifyError
}

func (e *PassError) Error() string {
	return fmt.Sprintf("ir: function @%s fails verification after pass %q: %v", e.Fn, e.Pass, e.Err)
}

func (e *PassError) Unwrap() error { return e.Err }

// Pipeline is an ordered pass sequence with verification between passes.
type Pipeline struct {
	Passes []Pass
}

// NewPipeline resolves an OptConfig to a runnable pipeline.
func NewPipeline(cfg OptConfig) (*Pipeline, error) {
	names, err := cfg.PassList()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{}
	for _, name := range names {
		pass, err := passByName(name, cfg.UnrollFactor())
		if err != nil {
			return nil, err
		}
		p.Passes = append(p.Passes, pass)
	}
	return p, nil
}

// passByName instantiates one pass from its registry name.
func passByName(name string, unroll int) (Pass, error) {
	switch name {
	case "cse":
		return commonSubexprElim{}, nil
	case "strength":
		return strengthReduce{}, nil
	case "unroll":
		return &loopUnroll{Factor: unroll}, nil
	}
	return nil, fmt.Errorf("ir: unknown pass %q", name)
}

// Run applies the pipeline to every function of m, in module order, running
// passes in their configured order. After each pass the function's dense IDs
// are re-assigned and Verify re-runs; a verification failure is returned as a
// *PassError naming the offending pass. An empty pipeline leaves the module
// untouched (O0 is bit-identical to the unoptimized build).
func (p *Pipeline) Run(m *Module) error {
	if len(p.Passes) == 0 {
		return nil
	}
	for _, f := range m.Funcs {
		for _, pass := range p.Passes {
			pass.Run(f)
			// Re-number blocks, instruction indices, and value IDs: passes
			// splice freely and the verifier (and every later consumer)
			// depends on dense in-layout-order IDs. The private assignIDs is
			// used directly because the sync.Once wrapper only guards the
			// first concurrent assignment on shared functions; here the
			// function is still private to the compile.
			f.assignIDs()
			if err := Verify(f); err != nil {
				return &PassError{Pass: pass.Name(), Fn: f.Ident, Err: err}
			}
		}
	}
	return nil
}

// replaceUses rewrites every operand use of old to new across f. Branch
// targets and phi incoming-block lists are untouched (blocks are not values).
func replaceUses(f *Function, old, new Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
				}
			}
		}
	}
}

// removeInstr deletes in from its parent block, preserving order.
func removeInstr(b *Block, idx int) {
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}
