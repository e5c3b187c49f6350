// Command benchmark is the repository's benchmark of record: seven workloads
// that between them cover the path from kernel source to fleet report, each
// reporting the same end-to-end metrics, and in a traced run the metrics of
// single layers. README.md in this directory says what each number is for.
//
//	go run ./benchmark                         every workload, untraced
//	go run ./benchmark -trace 1                every workload, per-layer metrics
//	go run ./benchmark -workload mesh64 -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -list
//	go run ./benchmark -aa -runs 10            two sets of the same build, compared
//	go run ./benchmark -write-expected         re-record expected/seed1.json
//
// It must run from the repository root. It imports only the mosaicsim facade
// and the standard library; mosaicd, mosaicsim and experiments are built
// from ./cmd and driven as child processes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in its own process)")
	seed := fs.Int64("seed", defaultSeed, "workload seed; inputs are a function of it alone")
	seconds := fs.Float64("seconds", 12, "how long one run measures (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: record spans and report per-layer metrics")
	list := fs.Bool("list", false, "list the workloads and why each exists")
	smoke := fs.Bool("smoke", false, "tiny inputs, one pass, nothing but this process: checks the code path, measures nothing")
	writeExp := fs.Bool("write-expected", false, "record the default seed's simulated statistics as expected/seed1.json")
	aa := fs.Bool("aa", false, "run two sets of runs of this build back to back and compare them against the bounds")
	runs := fs.Int("runs", 10, "with -aa: runs per workload and set, each with its own seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if *list {
		for _, d := range workloadDefs {
			fmt.Fprintf(stdout, "%-14s %s\n", d.Name, d.Why)
		}
		return 0
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "benchmark: no go.mod here; run from the repository root")
		return 1
	}
	cfg := runConfig{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke}

	var err error
	switch {
	case *aa:
		err = runAA(ctx, cfg, *runs, stdout, stderr)
	case *writeExp:
		err = writeExpected(ctx, cfg, stdout, stderr)
	case *name == "":
		err = runSuite(ctx, cfg, stdout, stderr)
	default:
		err = runOne(ctx, cfg, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// binDir is where the child binaries go, inside the checkout.
var binDir = filepath.Join(".bench_build", "bin")

// buildBins builds the named commands from ./cmd. go build does nothing for
// a binary that is up to date, so every run can call it.
func buildBins(ctx context.Context, names []string, log io.Writer) error {
	if len(names) == 0 {
		return nil
	}
	args := []string{"build", "-buildvcs=false", "-o", binDir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %v: %v\n%s", names, err, out.String())
	}
	fmt.Fprintf(log, "build: %v in %.2fs (not part of setup_s)\n", names, time.Since(start).Seconds())
	return nil
}

// runOne runs one workload in this process and prints its report, the JSON
// object last.
func runOne(ctx context.Context, cfg runConfig, stdout, stderr io.Writer) error {
	def, ok := findWorkload(cfg.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (see -list)", cfg.Workload)
	}
	host := readHost()
	hb, _ := json.Marshal(host) // plain strings and ints
	fmt.Fprintf(stdout, "host %s\n", hb)
	if !cfg.Smoke {
		bins := def.Bins
		if cfg.Trace {
			bins = append(append([]string(nil), bins...), def.TraceBins...)
		}
		if err := buildBins(ctx, bins, stdout); err != nil {
			return err
		}
		cfg.Bin = binDir
	} else if len(def.Bins) > 0 {
		return fmt.Errorf("workload %s drives child processes; -smoke runs only the in-process workloads", def.Name)
	}
	exp, err := loadExpected()
	if err != nil {
		return fmt.Errorf("%s: %w", expectedPath, err)
	}
	out, err := runWorkload(ctx, cfg, def, exp, host, stdout)
	if err != nil {
		return err
	}
	if cfg.WriteExpected {
		if out.Failed > 0 {
			return fmt.Errorf("%d ops failed (%s); expectations not written", out.Failed, strings.Join(out.Failures, "; "))
		}
		if err := exp.save(); err != nil {
			return err
		}
	}
	return report(stdout, cfg, out)
}

// runResult is the JSON object a single-workload run prints last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// child runs one workload in a process of its own, so that peak memory,
// allocation counts and garbage-collector state never leak from one
// workload into the next. The child's readable output goes to echo, what it
// writes to standard error to stderr.
func child(ctx context.Context, cfg runConfig, echo, stderr io.Writer) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	traceFlag := "0"
	if cfg.Trace {
		traceFlag = "1"
	}
	args := []string{
		"-workload", cfg.Workload, "-seed", fmt.Sprint(cfg.Seed),
		"-seconds", fmt.Sprint(cfg.Seconds), "-trace", traceFlag,
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	if cfg.WriteExpected {
		args = append(args, "-write-expected")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	// On cancellation ask first: the child has daemons of its own to stop.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, echo)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, fmt.Errorf("%s: last line is not a result: %w", cfg.Workload, err)
	}
	return res, nil
}

func workloadNames(only string) ([]string, error) {
	if only != "" {
		if _, ok := findWorkload(only); !ok {
			return nil, fmt.Errorf("unknown workload %q (see -list)", only)
		}
		return []string{only}, nil
	}
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.Name)
	}
	return names, nil
}

// runSuite runs every workload, each in its own process, and ends with one
// table of every metric by workload.
func runSuite(ctx context.Context, cfg runConfig, stdout, stderr io.Writer) error {
	names, _ := workloadNames("")
	all := map[string]runResult{}
	failed := 0
	start := time.Now()
	for _, n := range names {
		c := cfg
		c.Workload = n
		if cfg.Smoke {
			if def, _ := findWorkload(n); len(def.Bins) > 0 {
				continue
			}
		}
		res, err := child(ctx, c, stdout, stderr)
		if err != nil {
			return err
		}
		all[n] = res
		failed += res.Failed
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "suite: %d workloads in %.1fs\n", len(all), time.Since(start).Seconds())
	printTable(stdout, cfg.Trace, all)
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// printTable prints one row per metric and one column per workload.
func printTable(w io.Writer, traced bool, all map[string]runResult) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var cols []string
	for _, d := range workloadDefs {
		if _, ran := all[d.Name]; ran {
			cols = append(cols, d.Name)
		}
	}
	fmt.Fprintf(w, "%-28s %-6s", "metric", "unit")
	for _, c := range cols {
		fmt.Fprintf(w, " %13s", c)
	}
	fmt.Fprintln(w)
	for _, m := range defs {
		fmt.Fprintf(w, "%-28s %-6s", m.Name, m.Unit)
		for _, c := range cols {
			fmt.Fprintf(w, " %13.6g", all[c].Metrics[m.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-28s %-6s", "failed_frac", "ratio")
	for _, c := range cols {
		fmt.Fprintf(w, " %13.4g", ratio(float64(all[c].Failed), float64(all[c].Attempted)))
	}
	fmt.Fprintln(w)
}

// writeExpected records the default seed's results for one workload or all
// of them, one child per workload, each rewriting its own section.
func writeExpected(ctx context.Context, cfg runConfig, stdout, stderr io.Writer) error {
	if cfg.Seed != defaultSeed {
		return errors.New("-write-expected records the default seed only")
	}
	names, err := workloadNames(cfg.Workload)
	if err != nil {
		return err
	}
	for _, n := range names {
		c := cfg
		c.Workload, c.Trace, c.Smoke, c.WriteExpected = n, false, false, true
		// One short run is enough: the results do not depend on how long
		// the run measures.
		c.Seconds = 1
		if cfg.Workload != "" {
			// Already the process for this workload.
			if err := runOne(ctx, c, stdout, stderr); err != nil {
				return err
			}
			continue
		}
		if _, err := child(ctx, c, stdout, stderr); err != nil {
			return err
		}
	}
	return nil
}
