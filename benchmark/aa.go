package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
)

// countTolerance is how far a per-layer count may differ between two runs of
// the same build and seed. Workloads that run one op at a time must repeat
// their counts exactly; where ops run concurrently two of them can race to
// record the same schedule or miss the same cache entry.
func countTolerance(workload string) float64 {
	switch workload {
	case "sweep_grid", "svc_mix", "fleet_mix":
		return 0.02
	}
	return 0
}

// isCount reports whether a per-layer metric is a count the program makes,
// as opposed to a time the host takes.
func isCount(m metricDef) bool {
	if m.Unit == "count" {
		return true
	}
	switch m.Name {
	case "core.ipc", "soc.skip_frac", "mem.l1_miss_rate", "mem.l2_miss_rate", "mem.llc_miss_rate",
		"ir.o2_static_instr_ratio", "trace.bytes_per_instr", "server.report_bytes", "jobs.stage_cache_hit_frac":
		return true
	}
	return false
}

// timeDriven reports whether a count depends on wall-clock timing rather
// than on the work done, and so is not held to countTolerance: the fleet's
// own counters (heartbeats tick, leases go to whichever worker polls first),
// and on fleet_mix every cache and replay count, because which worker's
// cache a job meets follows from who leased it.
func timeDriven(workload, name string) bool {
	if strings.HasPrefix(name, "cluster.") {
		return true
	}
	if workload != "fleet_mix" {
		return false
	}
	return strings.HasPrefix(name, "sim.artifact_") || strings.HasPrefix(name, "replay.") || name == "jobs.stage_cache_hit_frac"
}

// runAA measures this build against itself: two sets of runs back to back,
// each set making runs untraced runs per workload (seeds 1..runs) and one
// traced run (the default seed). It prints, per end-to-end metric and
// workload, both medians, their relative difference, the spread of each set
// and the bound, and fails when a pair differs by more than its bound, a
// spread exceeds its bound, or a count differs by more than countTolerance.
func runAA(ctx context.Context, cfg runConfig, runs int, stdout, stderr io.Writer) error {
	names, err := workloadNames(cfg.Workload)
	if err != nil {
		return err
	}
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	type set struct {
		e2e    map[string]map[string][]float64 // workload -> metric -> values
		layers map[string]runResult            // workload -> traced run
	}
	var sets [2]set
	failedOps := 0
	for i := range sets {
		sets[i] = set{e2e: map[string]map[string][]float64{}, layers: map[string]runResult{}}
		for _, n := range names {
			sets[i].e2e[n] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				c := cfg
				c.Workload, c.Seed, c.Trace = n, int64(defaultSeed+r), false
				fmt.Fprintf(stdout, "aa: set %d  %s  seed %d\n", i+1, n, c.Seed)
				res, err := child(ctx, c, io.Discard, stderr)
				if err != nil {
					return err
				}
				failedOps += res.Failed
				for _, m := range endToEnd {
					sets[i].e2e[n][m.Name] = append(sets[i].e2e[n][m.Name], res.Metrics[m.Name].Value)
				}
			}
			c := cfg
			c.Workload, c.Seed, c.Trace = n, defaultSeed, true
			fmt.Fprintf(stdout, "aa: set %d  %s  traced\n", i+1, n)
			res, err := child(ctx, c, io.Discard, stderr)
			if err != nil {
				return err
			}
			failedOps += res.Failed
			sets[i].layers[n] = res
		}
	}

	bad := 0
	fmt.Fprintf(stdout, "\n%-14s %-16s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound", "verdict")
	for _, n := range names {
		for _, m := range endToEnd {
			a, b := sets[0].e2e[n][m.Name], sets[1].e2e[n][m.Name]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrSpread(a), iqrSpread(b)
			var why []string
			if worse > m.Bound {
				why = append(why, "B worse than A by more than the bound")
			}
			// The spread of setup_s is not held to its bound: a set-up of a
			// few tens of milliseconds is mostly process start-up noise.
			if m.Name != "setup_s" && runs >= 4 && math.Max(sa, sb) > m.Bound {
				why = append(why, "spread exceeds the bound")
			}
			verdict := "ok"
			if len(why) > 0 {
				verdict = "FAIL: " + strings.Join(why, "; ")
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-16s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				n, m.Name, ma, mb, 100*ratio(mb-ma, ma), 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "\n%-14s %-28s %14s %14s %9s %6s  %s\n", "workload", "count", "A", "B", "diff", "allow", "verdict")
	for _, n := range names {
		tol := countTolerance(n)
		for _, m := range perLayer {
			if !isCount(m) || timeDriven(n, m.Name) {
				continue
			}
			a, b := sets[0].layers[n].Metrics[m.Name].Value, sets[1].layers[n].Metrics[m.Name].Value
			if a == 0 && b == 0 {
				continue
			}
			diff := math.Abs(ratio(b-a, math.Max(math.Abs(a), math.Abs(b))))
			verdict := "ok"
			if diff > tol {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-28s %14.8g %14.8g %8.3f%% %5.1f%%  %s\n", n, m.Name, a, b, 100*diff, 100*tol, verdict)
		}
	}
	if failedOps > 0 {
		return fmt.Errorf("%d ops failed", failedOps)
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons outside their bounds", bad)
	}
	fmt.Fprintln(stdout, "\naa: every pair within its bound")
	return nil
}
