// Command mosaic-ddg emits the static data-dependence graph (§II-A) of a
// kernel as Graphviz DOT or as summary statistics.
//
// Usage:
//
//	mosaic-ddg -workload sgemm           # stats
//	mosaic-ddg -workload bfs -dot        # DOT on stdout
//	mosaic-ddg -workload sgemm -O 2      # DDG of the optimized module
//	mosaic-ddg -src kernel.c -fn kernel -dot > g.dot
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mosaicsim/internal/cc"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: 0 on success, 1 when the work fails (an
// unreadable source file, a kernel that does not compile), 2 for a command
// line it cannot act on.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mosaic-ddg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "built-in workload name")
	src := fs.String("src", "", "mini-C source file")
	fn := fs.String("fn", "kernel", "kernel function name (with -src)")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of statistics")
	printIR := fs.Bool("ir", false, "print the kernel IR")
	optLevel := fs.String("O", "", "compiler optimization level: O0, O2 (default O0)")
	passes := fs.String("passes", "", "explicit comma-separated pass list (overrides -O): cse,strength,unroll")
	unroll := fs.Int("unroll", 0, "loop-unroll factor when the unroll pass runs (0 = default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // fs has already written the error and the usage to stderr
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "mosaic-ddg:", err)
		return code
	}

	if *optLevel != "" && *passes != "" {
		return fail(2, errors.New("-O and -passes are mutually exclusive"))
	}
	opt, err := ir.ParseOptConfig(*optLevel, *passes, *unroll)
	if err != nil {
		return fail(2, err)
	}

	var f *ir.Function
	var g *ddg.Graph
	switch {
	case *workload != "":
		// Built-in workloads go through the session engine's Compile and
		// DDG stages, sharing the process-wide artifact cache.
		w, err := workloads.Resolve(*workload)
		if err != nil {
			return fail(2, err)
		}
		if !opt.IsDefault() {
			w = w.WithOpt(opt)
		}
		s, err := sim.NewSession(sim.Options{Workload: w})
		if err != nil {
			return fail(1, err)
		}
		ctx := context.Background()
		if f, err = s.Compile(ctx); err != nil {
			return fail(1, err)
		}
		if g, err = s.Graph(ctx); err != nil {
			return fail(1, err)
		}
	case *src != "":
		data, err := os.ReadFile(*src)
		if err != nil {
			return fail(1, err)
		}
		mod, err := cc.CompileWithOpt(string(data), *src, opt)
		if err != nil {
			return fail(1, err)
		}
		f = mod.Func(*fn)
		if f == nil {
			return fail(1, fmt.Errorf("no function %q in %s", *fn, *src))
		}
		g = ddg.Build(f)
	default:
		fmt.Fprintln(stderr, "need -workload or -src; see -h")
		return 2
	}

	if *printIR {
		fmt.Fprintln(stdout, f.String())
	}
	if *dot {
		fmt.Fprint(stdout, g.DOT())
		return 0
	}
	fmt.Fprintf(stdout, "opt: %s\n", opt)
	s := g.Stats()
	tbl := stats.NewTable("static DDG: @"+f.Ident, "metric", "value")
	tbl.Row("basic blocks", s.Blocks)
	tbl.Row("nodes (static instructions)", s.Nodes)
	tbl.Row("intra-DBB data edges", s.IntraEdges)
	tbl.Row("cross-DBB data edges", s.CrossEdges)
	tbl.Row("phi edges", s.PhiEdges)
	tbl.Row("memory operations", s.MemOps)
	fmt.Fprintln(stdout, tbl.String())

	// Lightweight performance estimation straight from the graph (§II).
	est := g.Estimate(ddg.UnitLatency)
	an := stats.NewTable("static estimate (unit latencies)", "block", "nodes", "critical path", "ILP", "loop recurrence")
	for _, b := range est.Blocks {
		an.Row(b.Block.Ident, b.Nodes, b.CriticalPath, b.ILP, b.LoopCarried)
	}
	fmt.Fprintln(stdout, an.String())
	fmt.Fprintf(stdout, "max per-block ILP %.2f; dataflow-minimum initiation interval %d cycles/iteration\n",
		est.MaxILP, est.MinII)
	return 0
}
