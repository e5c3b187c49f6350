package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Layer probes drive the repo's own CLIs as child processes and compare
// wall times. They touch mode knobs only as command-line flags, so when a
// later change deletes a mode the probe reports n/a instead of failing to
// compile.

// cliWall runs a child binary and returns its wall time and standard output.
func cliWall(ctx context.Context, bin, name string, args ...string) (time.Duration, string, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	took := time.Since(start)
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if i := strings.IndexByte(msg, '\n'); i > 0 {
			msg = msg[:i]
		}
		return 0, "", fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, msg)
	}
	return took, stdout.String(), nil
}

// wallRatio runs two variants of a command alternately, rounds times each,
// and returns median(a) / median(b).
func wallRatio(ctx context.Context, bin, name string, a, b []string, rounds int) (float64, error) {
	var as, bs []float64
	for i := 0; i < rounds; i++ {
		ta, _, err := cliWall(ctx, bin, name, a...)
		if err != nil {
			return 0, err
		}
		tb, _, err := cliWall(ctx, bin, name, b...)
		if err != nil {
			return 0, err
		}
		as, bs = append(as, ta.Seconds()), append(bs, tb.Seconds())
	}
	return ratio(median(as), median(bs)), nil
}

// probe runs one layer probe and records its value, or the reason there is
// none: no child binaries (a smoke run), a flag that no longer exists, a
// child that failed.
func probe(lc *layerContext, name string, measure func() (float64, error)) {
	if lc.cfg.Bin == "" {
		lc.out.na(name, "child binaries are not built in a smoke run")
		return
	}
	v, err := measure()
	if err != nil {
		lc.out.na(name, err.Error())
		return
	}
	lc.out.layer(name, v)
}

// noskipProbe: what event-horizon cycle skipping buys on the memory-bound
// kernel that skips most.
func noskipProbe(ctx context.Context, lc *layerContext) {
	probe(lc, "soc.noskip_over_skip", func() (float64, error) {
		base := []string{"-workload", "spmv", "-scale", "small", "-tiles", "1"}
		return wallRatio(ctx, lc.cfg.Bin, "mosaicsim", append([]string{"-noskip"}, base...), base, 2)
	})
}

// shardedProbe: the prove-or-delete ratio for sharded tile stepping, on the
// mesh64 topology.
func shardedProbe(ctx context.Context, lc *layerContext) {
	probe(lc, "soc.sharded_over_seq", func() (float64, error) {
		base := []string{"-workload", "sgemm", "-scale", "small", "-tiles", "64", "-mesh", "8", "-hop", "4"}
		sharded := append([]string{"-step-workers", strconv.Itoa(runtime.NumCPU())}, base...)
		return wallRatio(ctx, lc.cfg.Bin, "mosaicsim", sharded, base, 3)
	})
}

// sweepSpeedupProbe: the experiment harness's own serial/parallel pair.
func sweepSpeedupProbe(ctx context.Context, lc *layerContext) {
	probe(lc, "parallel.sweep_speedup", func() (float64, error) {
		base := []string{"-run", "fig5,fig11,fig12", "-scale", "tiny"}
		return wallRatio(ctx, lc.cfg.Bin, "experiments", append([]string{"-jobs", "1"}, base...), append([]string{"-jobs", "0"}, base...), 2)
	})
}

var geomeanRE = regexp.MustCompile(`(?m)^geomean\s+([0-9.]+)`)

// accuracyProbe: the simulator's error against the repo's reference, the
// href model (not silicon), printed beside the speed so that a speed-up
// bought with accuracy is visible.
func accuracyProbe(ctx context.Context, lc *layerContext) {
	probe(lc, "href.accuracy_geomean", func() (float64, error) {
		_, out, err := cliWall(ctx, lc.cfg.Bin, "experiments", "-run", "fig5", "-scale", "small")
		if err != nil {
			return 0, err
		}
		m := geomeanRE.FindStringSubmatch(out)
		if m == nil {
			return 0, fmt.Errorf("experiments -run fig5 printed no geomean row")
		}
		return strconv.ParseFloat(m[1], 64)
	})
}
