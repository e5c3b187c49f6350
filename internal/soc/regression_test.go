package soc

// Regression tests for shared-state fixes in the fabric and the run loop:
// pure fabric latency queries, validated NoC geometry, and terminal progress
// updates on every Run exit path.

import (
	"context"
	"strings"
	"testing"

	"mosaicsim/internal/config"
)

// TestTransferCostPure is the regression test for the transferLatency bug:
// the latency computation used to bump HopsTotal as a side effect, so every
// query — including horizon probes and rejected sends — corrupted the NoC
// statistics. The cost query must be pure; hop accounting belongs to
// accepted sends only.
func TestTransferCostPure(t *testing.T) {
	f := NewFabric(1, 1)
	f.MeshWidth = 2
	f.HopCycles = 4
	if lat, hops := f.transferCost(0, 3); lat != 9 || hops != 2 {
		t.Fatalf("transferCost(0,3) = (%d, %d), want (9, 2)", lat, hops)
	}
	if f.HopsTotal() != 0 || f.Sends() != 0 {
		t.Fatalf("latency query mutated counters: hops=%d sends=%d", f.HopsTotal(), f.Sends())
	}
	if !f.TrySend(0, 3, 0) {
		t.Fatal("send within capacity failed")
	}
	if f.HopsTotal() != 2 || f.Sends() != 1 {
		t.Errorf("accepted send: hops=%d sends=%d, want 2/1", f.HopsTotal(), f.Sends())
	}
	if f.TrySend(0, 3, 0) {
		t.Fatal("send beyond capacity succeeded")
	}
	if f.HopsTotal() != 2 {
		t.Errorf("rejected send charged hops: %d, want 2", f.HopsTotal())
	}
	// Horizon probes walk the queue fronts; they must not mutate anything.
	f.frontArrivals(func(int, int64) {})
	if f.HopsTotal() != 2 || f.Sends() != 1 || f.Recvs() != 0 {
		t.Errorf("horizon probe mutated counters: hops=%d sends=%d recvs=%d",
			f.HopsTotal(), f.Sends(), f.Recvs())
	}
	// A rejected future-send reservation must not charge hops either.
	if _, ok := f.TrySendFuture(0, 3); ok {
		t.Fatal("future send beyond capacity succeeded")
	}
	if f.HopsTotal() != 2 {
		t.Errorf("rejected future send charged hops: %d, want 2", f.HopsTotal())
	}
}

// TestFabricValidateSlots is the regression test for the unchecked
// Slots[src]/Slots[dst] indexing: a hand-built fabric with a short,
// off-grid, or duplicated Slots table must fail Validate up front instead of
// panicking with an opaque index error mid-run.
func TestFabricValidateSlots(t *testing.T) {
	mk := func() *Fabric {
		f := NewFabric(4, 1)
		f.Tiles = 4
		f.MeshWidth = 2
		return f
	}
	cases := []struct {
		name  string
		build func() *Fabric
		want  string // substring of the error; "" = valid
	}{
		{"valid", func() *Fabric { f := mk(); f.Slots = []int{0, 1, 2, 3}; return f }, ""},
		{"no-slots", mk, ""},
		{"short", func() *Fabric { f := mk(); f.Slots = []int{0, 1}; return f }, "pins only 2"},
		{"off-grid", func() *Fabric { f := mk(); f.Slots = []int{0, 1, 2, 9}; return f }, "outside"},
		{"duplicate", func() *Fabric { f := mk(); f.Slots = []int{0, 1, 2, 2}; return f }, "both pinned"},
		{"slots-without-mesh", func() *Fabric { f := NewFabric(4, 1); f.Slots = []int{0}; return f }, "no mesh"},
		{"undersized-mesh", func() *Fabric { f := mk(); f.Tiles = 5; return f }, "cannot place"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestRunRejectsBadSlots: Run must surface a bad Slots table as an error
// before the first cycle, never as a mid-run panic.
func TestRunRejectsBadSlots(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 4, vecSetup(64), nil)
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "bad-slots",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 4}},
		Mem:   config.TableIIMem(),
		NoC:   &config.NoCConfig{MeshWidth: 2, HopCycles: 1},
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Fabric.Slots = []int{0, 1} // hand-corrupted: 4 tiles, 2 slots
	err = sys.Run(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "Slots") {
		t.Fatalf("want a Slots validation error, got %v", err)
	}
}

// TestRunEmitsTerminalProgress is the regression test for the stale-progress
// bug: OnProgress used to fire only inside the every-128-iteration poll, so
// a finished (or canceled, or limited) run's last streamed update lagged the
// final state by up to the poll interval plus the last horizon jump. Every
// exit path must now emit one final update.
func TestRunEmitsTerminalProgress(t *testing.T) {
	build := func(t *testing.T) *System {
		g, tr := traceSPMD(t, spmdVecAdd, 1, vecSetup(2048), nil)
		sys, err := NewSPMD(&config.SystemConfig{
			Name:  "final-progress",
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}},
			Mem:   config.TableIIMem(),
		}, g, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	check := func(t *testing.T, ups []ProgressUpdate, wantCycle int64) {
		t.Helper()
		if len(ups) == 0 {
			t.Fatal("OnProgress never fired")
		}
		last := ups[len(ups)-1]
		if !last.Final {
			t.Fatalf("last update is not Final: %+v", last)
		}
		if wantCycle >= 0 && last.Cycle != wantCycle {
			t.Fatalf("final update cycle = %d, want %d", last.Cycle, wantCycle)
		}
		for _, u := range ups[:len(ups)-1] {
			if u.Final {
				t.Fatalf("non-terminal update marked Final: %+v", u)
			}
		}
	}
	t.Run("done", func(t *testing.T) {
		sys := build(t)
		var ups []ProgressUpdate
		sys.OnProgress = func(u ProgressUpdate) { ups = append(ups, u) }
		if err := sys.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		check(t, ups, sys.Cycles)
	})
	t.Run("limit", func(t *testing.T) {
		sys := build(t)
		var ups []ProgressUpdate
		sys.OnProgress = func(u ProgressUpdate) { ups = append(ups, u) }
		if err := sys.Run(context.Background(), 500); err == nil {
			t.Fatal("expected a cycle-limit error")
		}
		check(t, ups, sys.Cycles)
	})
	t.Run("cancel", func(t *testing.T) {
		sys := build(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ups []ProgressUpdate
		sys.OnProgress = func(u ProgressUpdate) { ups = append(ups, u) }
		if err := sys.Run(ctx, 0); err == nil {
			t.Fatal("expected a cancellation error")
		}
		check(t, ups, -1)
	})
}
