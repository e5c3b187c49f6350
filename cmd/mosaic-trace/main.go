// Command mosaic-trace runs the Dynamic Trace Generator (§II-A) for a
// built-in workload, optionally writing the binary trace file, and reports
// trace statistics (the §VI-B storage study for one kernel).
//
// Usage:
//
//	mosaic-trace -workload bfs -tiles 4
//	mosaic-trace -workload sgemm -o sgemm.mstr
//	mosaic-trace -read sgemm.mstr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/trace"
	"mosaicsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: 0 on success, 1 when the work fails (an
// unreadable or malformed trace file, a failed result check), 2 for a command
// line it cannot act on.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mosaic-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "built-in workload name")
	tiles := fs.Int("tiles", 1, "SPMD tile count")
	scale := fs.String("scale", "small", "workload scale: tiny, small, large")
	out := fs.String("o", "", "write the binary trace to this file")
	read := fs.String("read", "", "read and summarize a previously written trace")
	hot := fs.Int("hot", 0, "profile the run and print the N hottest static instructions")
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
		fmt.Fprintln(stderr, "mosaic-trace:", err)
		return code
	}

	if *workload == "" && *read == "" {
		fmt.Fprintln(stderr, "need -workload or -read; see -h")
		return 2
	}
	w, err := workloads.Resolve(*workload)
	if err != nil && *workload != "" {
		return fail(2, err)
	}
	if *optLevel != "" && *passes != "" {
		return fail(2, errors.New("-O and -passes are mutually exclusive"))
	}
	opt, err := ir.ParseOptConfig(*optLevel, *passes, *unroll)
	if err != nil {
		return fail(2, err)
	}
	if w != nil && !opt.IsDefault() {
		w = w.WithOpt(opt)
	}
	if *read != "" {
		fh, err := os.Open(*read)
		if err != nil {
			return fail(1, err)
		}
		defer fh.Close()
		tr, err := trace.Read(fh)
		if errors.Is(err, trace.ErrOlderVersion) {
			err = fmt.Errorf("%w with mosaic-trace -workload W -o %s", err, *read)
		}
		if err != nil {
			return fail(1, err)
		}
		summarize(stdout, tr)
		return 0
	}
	fmt.Fprintf(stdout, "opt: %s\n", w.Opt)
	var ws workloads.Scale
	switch *scale {
	case "tiny":
		ws = workloads.Tiny
	case "large":
		ws = workloads.Large
	default:
		ws = workloads.Small
	}
	if *hot > 0 {
		if err := profileRun(stdout, w, *tiles, ws, *hot); err != nil {
			return fail(1, err)
		}
		return 0
	}
	// The trace comes from the session engine's Trace stage — the same
	// compile/trace path (and artifact cache) the simulator drivers use.
	s, err := sim.NewSession(sim.Options{Workload: w, Scale: ws, Tiles: *tiles})
	if err != nil {
		return fail(1, err)
	}
	tr, err := s.Trace(context.Background())
	if err != nil {
		return fail(1, err)
	}
	summarize(stdout, tr)
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			return fail(1, err)
		}
		n, err := tr.WriteTo(fh)
		if err == nil {
			err = fh.Close()
		}
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *out, n)
	}
	return 0
}

// profileRun executes the workload with instruction profiling and prints the
// hottest static instructions aggregated over tiles.
func profileRun(stdout io.Writer, w *workloads.Workload, tiles int, ws workloads.Scale, topN int) error {
	f, err := w.Kernel()
	if err != nil {
		return err
	}
	mem := interp.NewMemory(workloads.MemBytes)
	inst := w.Setup(mem, ws)
	res, err := interp.Run(f, mem, inst.Args, interp.Options{NumTiles: tiles, Acc: inst.Acc, Profile: true})
	if err != nil {
		return err
	}
	summarize(stdout, res.Trace)
	agg := make([]int64, f.NumInstrs())
	for _, counts := range res.Counts {
		for i, c := range counts {
			agg[i] += c
		}
	}
	idx := make([]int, len(agg))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return agg[idx[a]] > agg[idx[b]] })
	tbl := stats.NewTable(fmt.Sprintf("hottest %d static instructions", topN), "instr", "block", "op", "executions")
	for rank := 0; rank < topN && rank < len(idx); rank++ {
		i := idx[rank]
		in := f.InstrByIdx(i)
		op := in.Op.String()
		if in.Callee != "" {
			op += " " + in.Callee
		}
		tbl.Row(i, in.Parent.Ident, op, agg[i])
	}
	fmt.Fprintln(stdout, tbl.String())
	return nil
}

func summarize(stdout io.Writer, tr *trace.Trace) {
	tbl := stats.NewTable("trace: "+tr.Kernel, "tile", "dyn. instrs", "BB path", "mem events", "acc calls", "comm events")
	for _, tt := range tr.Tiles {
		tbl.Row(tt.Tile, tt.DynInstrs, tt.BBPath.Len(), tt.Mem.Len(), len(tt.Acc), tt.Comm.Len())
	}
	fmt.Fprintln(stdout, tbl.String())
	size, _ := tr.EncodedSize() // encoding into io.Discard cannot fail
	fmt.Fprintf(stdout, "total: %d dynamic instructions, %d memory events, %d bytes encoded (%.2f B/instr)\n",
		tr.TotalDynInstrs(), tr.TotalMemEvents(), size, float64(size)/float64(tr.TotalDynInstrs()))
}
