package soc_test

import (
	"context"
	"runtime"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/workloads"
)

// TestBuildTouchesWhatItUses: building and running a 64-tile system costs
// what the run touches, not what the configuration could hold. sgemm tiny
// reaches a few pages of each 2 MB L2; zeroing every line slab up front
// allocated 57 MB before the first cycle.
func TestBuildTouchesWhatItUses(t *testing.T) {
	const tiles = 64
	g, tr, err := workloads.ByName("sgemm").Trace(tiles, workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	sc := &config.SystemConfig{
		Name:  "mesh",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: tiles}},
		Mem:   config.TableIIMem(),
		NoC:   &config.NoCConfig{MeshWidth: 8, HopCycles: 4},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := soc.NewSPMD(sc, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := sys.Result().Instrs; got != tr.TotalDynInstrs() {
		t.Fatalf("retired %d instructions, trace has %d", got, tr.TotalDynInstrs())
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 16 {
		t.Errorf("building and running sgemm tiny on %d tiles allocated %.1f MB, want < 16", tiles, mb)
	} else {
		t.Logf("allocated %.1f MB", mb)
	}
}
