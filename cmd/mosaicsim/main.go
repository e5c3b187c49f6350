// Command mosaicsim is the main simulator driver: it compiles a kernel (a
// built-in workload or a mini-C source file), generates its dynamic traces
// with the built-in DTG, simulates it on a configured system, and reports
// the system-wide performance estimate (§II of the paper). Each run is a
// sim.Session, so the CLI, the experiment harness, and the library API all
// drive the same engine.
//
// Usage:
//
//	mosaicsim -list
//	mosaicsim -workload sgemm -tiles 4 -core ooo
//	mosaicsim -workload spmv -topology sys.json -json
//	mosaicsim -workload sgemm -topology configs/core-accel.json
//	mosaicsim -workload projection -topology dae-pair
//	mosaicsim -workload bfs,spmv,sgemm -tiles 8 -jobs 4
//	mosaicsim -workload bfs -tiles 8 -coherence -mesh 4 -branch dynamic
//	mosaicsim -workload lbm -tiles 8 -timeout 30s
//
// -workload accepts a comma-separated list; the runs fan out across -jobs
// workers (default: all CPU cores) and outputs print in list order.
// -timeout bounds the whole sweep's wall-clock time: when it expires,
// in-flight simulations abort mid-run and queued ones are abandoned.
//
// (For external kernel sources, use mosaic-ddg -src to inspect compilation
// and the library API to drive simulation.)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/parallel"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/workloads"
)

// main delegates to run so every exit path unwinds run's defers — the pprof
// CPU/heap profile writers in particular, which os.Exit inside the work loop
// would otherwise skip.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mosaicsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "built-in workload name, or a comma-separated list (see -list)")
	list := fs.Bool("list", false, "list built-in workloads")
	tiles := fs.Int("tiles", 1, "SPMD tile count")
	coreKind := fs.String("core", "ooo", "core model: ooo, inorder, xeon")
	scale := fs.String("scale", "small", "workload scale: tiny, small, large")
	memKind := fs.String("mem", "tab2", "memory hierarchy: tab1 (Xeon-like) or tab2 (DAE study)")
	dram := fs.String("dram", "", "override DRAM model: simple or banked")
	coherence := fs.Bool("coherence", false, "enable the directory coherence extension")
	mesh := fs.Int("mesh", 0, "arrange tiles on a 2D mesh of this width (0 = flat fabric)")
	hop := fs.Int64("hop", 4, "NoC per-hop latency in cycles (with -mesh)")
	branch := fs.String("branch", "", "override every tile's branch predictor: none, static, dynamic, perfect")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of tables")
	topology := fs.String("topology", "", "system configuration (overrides -core/-mem/-tiles): a JSON file (see configs/, -save-config) or a preset name (spmd-xeon, dae-pair, core-accel)")
	saveCfg := fs.String("save-config", "", "write the effective system configuration to a JSON file and exit")
	jobs := fs.Int("jobs", 0, "max concurrent workload simulations (0 = all CPU cores)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole sweep (0 = none)")
	noskip := fs.Bool("noskip", false, "disable event-horizon cycle skipping (naive cycle-by-cycle loop)")
	replay := fs.Bool("replay", true, "answer timing-only re-simulations from recorded schedules (bit-identical results)")
	optLevel := fs.String("O", "", "compiler optimization level: O0, O2 (default O0)")
	passes := fs.String("passes", "", "explicit comma-separated pass list (overrides -O): cse,strength,unroll")
	unroll := fs.Int("unroll", 0, "loop-unroll factor when the unroll pass runs (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // fs has already written the error and the usage to stderr
	}
	// fatal reports err and returns the failure exit code for run to return,
	// so deferred cleanups (profiles) still execute.
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "mosaicsim:", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", w.Name, w.Desc)
		}
		return 0
	}
	if *workload == "" {
		fmt.Fprintln(stderr, "need -workload (or -list); see -h")
		return 2
	}
	// Validate the whole list up front: an unknown name fails immediately
	// (with a did-you-mean suggestion) instead of after earlier runs.
	var ws []*workloads.Workload
	for _, name := range strings.Split(*workload, ",") {
		w, err := workloads.Resolve(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintf(stderr, "mosaicsim: %v; see -list\n", err)
			return 2
		}
		ws = append(ws, w)
	}
	if *optLevel != "" && *passes != "" {
		fmt.Fprintln(stderr, "mosaicsim: -O and -passes are mutually exclusive")
		return 2
	}
	opt, err := ir.ParseOptConfig(*optLevel, *passes, *unroll)
	if err != nil {
		fmt.Fprintln(stderr, "mosaicsim:", err)
		return 2
	}
	if !opt.IsDefault() {
		for i := range ws {
			ws[i] = ws[i].WithOpt(opt)
		}
	}

	configFor := func(w *workloads.Workload) (*config.SystemConfig, error) {
		var sc *config.SystemConfig
		var err error
		if *topology == "" {
			sc, err = config.Flat(w.Name, *coreKind, *memKind, *tiles)
		} else if _, statErr := os.Stat(*topology); statErr == nil {
			sc, err = config.Load(*topology)
		} else {
			sc, err = config.TopologyPreset(*topology)
		}
		if err != nil {
			return nil, err
		}
		switch *dram {
		case "":
		case "simple":
			sc.Mem.DRAM.Model = config.DRAMSimple
		case "banked":
			bw := sc.Mem.DRAM.BandwidthGBs
			sc.Mem.DRAM = config.BankedDRAMDefaults(bw)
		default:
			return nil, fmt.Errorf("unknown DRAM model %q", *dram)
		}
		if *coherence {
			sc.Mem.Directory = true
		}
		if *mesh > 0 {
			sc.NoC = &config.NoCConfig{MeshWidth: *mesh, HopCycles: *hop}
		}
		if *branch != "" {
			// One more override on every tile definition, over whatever the
			// definition sets; resolution validates the name.
			for i := range sc.Tiles {
				td := &sc.Tiles[i]
				over := map[string]json.RawMessage{}
				if len(td.Overrides) > 0 && json.Unmarshal(td.Overrides, &over) != nil {
					continue // malformed overrides: resolution reports them
				}
				over["branch"], _ = json.Marshal(*branch)
				td.Overrides, _ = json.Marshal(over)
			}
		}
		return sc, nil
	}

	if *saveCfg != "" {
		sc, err := configFor(ws[0])
		if err == nil {
			_, err = soc.Resolve(sc, false)
		}
		if err != nil {
			return fatal(err)
		}
		if err := sc.Save(*saveCfg); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *saveCfg)
		return 0
	}

	var wScale workloads.Scale
	switch *scale {
	case "tiny":
		wScale = workloads.Tiny
	case "large":
		wScale = workloads.Large
	default:
		wScale = workloads.Small
	}

	// Ctrl-C / SIGTERM cancels the sweep context, so an interrupted run
	// unwinds through the same clean context.Canceled path as -timeout —
	// in-flight simulations abort promptly, queued legs are abandoned, and
	// the pprof defers above still fire.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Each workload simulates independently; outputs are buffered and
	// printed in list order so -jobs never reorders or interleaves them.
	if *jobs > 0 {
		parallel.SetLimit(*jobs)
	}
	outs := make([]string, len(ws))
	err = parallel.ForErrCtx(ctx, 0, len(ws), func(i int) error {
		out, err := runOne(ctx, ws[i], configFor, wScale, *scale, *asJSON, *noskip, *replay)
		outs[i] = out
		return err
	})
	for _, out := range outs {
		fmt.Fprint(stdout, out)
	}
	if err != nil {
		return fatal(err)
	}
	return 0
}

// runOne traces and simulates one workload as a sim.Session, returning its
// full rendered output.
func runOne(ctx context.Context, w *workloads.Workload, configFor func(*workloads.Workload) (*config.SystemConfig, error),
	wScale workloads.Scale, scale string, asJSON, noskip, replay bool) (string, error) {
	sc, err := configFor(w)
	if err != nil {
		return "", err
	}
	topo, err := soc.Resolve(sc, false)
	if err != nil {
		return "", err
	}
	s, err := sim.NewSession(sim.Options{
		Workload:             w,
		Scale:                wScale,
		Topology:             topo,
		Accels:               workloads.DefaultAccelModels(topo.RefClockMHz()),
		DisableCycleSkipping: noskip,
		Replay:               replay,
	})
	if err != nil {
		return "", err
	}
	tiles := len(topo.Tiles)
	var sb strings.Builder
	tr, err := s.Trace(ctx)
	if err != nil {
		return "", err
	}
	if !asJSON { // -json output is the result alone, so it parses
		fmt.Fprintf(&sb, "compiling and tracing %s (%d tiles, %s scale)...\n", w.Name, tiles, scale)
		fmt.Fprintf(&sb, "trace: %d dynamic instructions, %d memory events\n",
			tr.TotalDynInstrs(), tr.TotalMemEvents())
	}

	res, err := s.Run(ctx)
	if err != nil {
		return "", err
	}
	// A replayed run is a copy of a recorded run's result: there is no
	// live system behind it, so component-level tables are
	// summarized from the result alone.
	sys := s.System()
	if asJSON {
		enc := json.NewEncoder(&sb)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return "", err
		}
		return sb.String(), nil
	}
	printResult(&sb, res, sys, s.Replay())
	return sb.String(), nil
}

func printResult(out io.Writer, r soc.Result, sys *soc.System, rp sim.ReplayOutcome) {
	tbl := stats.NewTable("simulation result", "metric", "value")
	tbl.Row("cycles", r.Cycles)
	tbl.Row("instructions", r.Instrs)
	tbl.Row("IPC", r.IPC)
	tbl.Row("energy (uJ)", r.EnergyPJ/1e6)
	tbl.Row("  cores (uJ)", r.Energy.CoresPJ/1e6)
	tbl.Row("  caches (uJ)", (r.Energy.L1PJ+r.Energy.L2PJ+r.Energy.LLCPJ)/1e6)
	tbl.Row("  DRAM (uJ)", r.Energy.DRAMPJ/1e6)
	if r.Energy.AccelPJ > 0 {
		tbl.Row("  accelerators (uJ)", r.Energy.AccelPJ/1e6)
	}
	tbl.Row("L1 accesses", r.L1.Accesses)
	tbl.Row("L1 hit rate", r.L1.HitRate())
	if r.L2.Accesses > 0 {
		tbl.Row("L2 hit rate", r.L2.HitRate())
	}
	if r.LLC.Accesses > 0 {
		tbl.Row("LLC hit rate", r.LLC.HitRate())
	}
	tbl.Row("DRAM reads", r.DRAM.Reads)
	tbl.Row("DRAM writebacks", r.DRAM.Writebacks)
	if r.AccelCalls > 0 {
		tbl.Row("accelerator calls", r.AccelCalls)
		tbl.Row("accelerator bytes", r.AccelBytes)
	}
	stepped, skipped := rp.Stepped, rp.Skipped
	if sys != nil {
		stepped, skipped = sys.SteppedCycles, sys.SkippedCycles
	}
	tbl.Row("cycles stepped", stepped)
	tbl.Row("cycles skipped", skipped)
	tbl.Row("skip fraction", stats.SkipFraction(stepped, skipped))
	if rp.Attempted {
		switch {
		case rp.Replayed:
			tbl.Row("replay", "hit ("+strings.Join(rp.Families, ", ")+")")
		case rp.Recorded:
			tbl.Row("replay", "schedule recorded")
		default:
			tbl.Row("replay", "fallback ("+rp.Reason+")")
		}
	}
	fmt.Fprintln(out, tbl.String())

	// Result.CoreStats is the cores' stats, live or replayed alike.
	per := stats.NewTable("per-tile", "tile", "instrs", "IPC", "loads", "stores", "sends", "recvs",
		"MAO stalls", "FU stalls", "window stalls", "comm stalls")
	for i := range r.CoreStats {
		s := &r.CoreStats[i]
		per.Row(i, s.Instrs, s.IPC(), s.Loads, s.Stores, s.Sends, s.Recvs, s.MAOStalls, s.FUStalls, s.WindowStalls, s.CommStalls)
	}
	fmt.Fprintln(out, per.String())
	if sys == nil {
		return // a replayed run has no live system to break down by kind
	}

	// Heterogeneous systems get a per-kind rollup so core vs accelerator
	// time is visible at a glance.
	if bks := sys.TileBreakdown(); len(bks) > 1 {
		kinds := stats.NewTable("per-kind", "kind", "tiles", "instrs", "active cycles", "stall cycles")
		for _, b := range bks {
			kinds.Row(b.Kind, b.Tiles, b.Instrs, b.ActiveCycles, b.StallCycles)
		}
		fmt.Fprintln(out, kinds.String())
	}
}
