package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestJobListIsAFunctionOfTheSeed(t *testing.T) {
	a := mustJSON(t, jobList(1, svcJobs, svcSmall))
	if b := mustJSON(t, jobList(1, svcJobs, svcSmall)); !bytes.Equal(a, b) {
		t.Error("the same seed gave two different job lists")
	}
	if b := mustJSON(t, jobList(2, svcJobs, svcSmall)); bytes.Equal(a, b) {
		t.Error("seeds 1 and 2 gave the same job list")
	}
}

// Every seed must ask for nearly the same work, or the spread between seeds
// drowns the bound: the skeleton of the list (how many jobs each kernel, tile
// count and scale gets) is the same for every seed.
func TestJobListSkeletonIsSeedIndependent(t *testing.T) {
	skeleton := func(seed int64) map[string]int {
		m := map[string]int{}
		for _, j := range jobList(seed, svcJobs, svcSmall) {
			j.Core, j.Mem = "", ""
			m[j.key()]++
		}
		return m
	}
	a, b := skeleton(1), skeleton(99)
	if len(a) != len(b) {
		t.Fatalf("seed 1 has %d groups, seed 99 has %d", len(a), len(b))
	}
	total := 0
	for k, n := range a {
		total += n
		if b[k] != n {
			t.Errorf("group %s: %d jobs under seed 1, %d under seed 99", k, n, b[k])
		}
	}
	if total != svcJobs {
		t.Errorf("job list holds %d jobs, want %d", total, svcJobs)
	}
	for _, j := range jobList(1, svcJobs, svcSmall) {
		if j.Workload == "histo" && j.Tiles > 1 {
			t.Errorf("histo on %d tiles: it fails its own check there (README.md, known defects)", j.Tiles)
		}
	}
}

func TestApportion(t *testing.T) {
	got := apportion(10, []float64{5, 3, 1, 1})
	want := []int{5, 3, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("apportion(10, 5:3:1:1) = %v, want %v", got, want)
		}
	}
	got = apportion(7, []float64{1, 1, 1})
	if got[0]+got[1]+got[2] != 7 {
		t.Errorf("apportion(7, 1:1:1) = %v does not sum to 7", got)
	}
}

func TestSweepGridIsAFunctionOfTheSeed(t *testing.T) {
	grid := func(seed int64) []byte {
		var cfgs []any
		for _, l := range sweepGrid(runConfig{Seed: seed}) {
			cfgs = append(cfgs, []any{l.id, l.kernel, l.cfg})
		}
		return mustJSON(t, cfgs)
	}
	a := grid(1)
	if !bytes.Equal(a, grid(1)) {
		t.Error("the same seed gave two different sweep grids")
	}
	if bytes.Equal(a, grid(2)) {
		t.Error("seeds 1 and 2 gave the same sweep grid")
	}
	legs := sweepGrid(runConfig{Seed: 1})
	if want := len(sweepKernels) * 2 * len(sweepL2KB) * (1 + sweepDeltas); len(legs) != want {
		t.Errorf("sweep grid has %d legs, want %d", len(legs), want)
	}
}

func TestTimingOpsAreAFunctionOfTheSeed(t *testing.T) {
	ops := func(seed int64) []byte {
		var out []any
		for _, op := range oneTileOps(runConfig{Seed: seed}, []string{"bfs", "spmv", "lbm", "stencil"}) {
			out = append(out, []any{op.id, op.cfg})
		}
		for _, op := range meshOps(runConfig{Seed: seed}) {
			out = append(out, []any{op.id, op.cfg})
		}
		return mustJSON(t, out)
	}
	if !bytes.Equal(ops(1), ops(1)) {
		t.Error("the same seed gave two different op lists")
	}
	if bytes.Equal(ops(1), ops(2)) {
		t.Error("seeds 1 and 2 gave the same op lists")
	}
}
